"""Regenerate golden.json, the default-seed output values the checks compare against.

    PYTHONPATH=src python3 perfbench/golden.py

Run from a checkout root, and only when the outputs are meant to change:
the file pins what one call of each workload at seed 0 produces.  Values
are compared within `workloads.GOLDEN_TOL`; the sha256 of the outputs is
stored too, for comparing reruns under the byte-identity contract.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from workloads import GOLDEN_PATH, WORKLOADS, golden_key


def main() -> int:
    from worker import Runner

    work = Path.cwd() / ".perfbench_work"
    golden = {}
    for name, wl in WORKLOADS.items():
        runner = Runner(wl, 0, work / f"golden-{name}")
        runner.golden = {}
        call = runner.call(0)
        if call.error is not None:
            print(f"{name}: {call.error}", file=sys.stderr)
            return 1
        golden[golden_key(call.argv)] = {
            "workload": name,
            "sha256": call.digest,
            "values": {k: call.values[k].tolist() for k in wl.golden_keys},
        }
        shutil.rmtree(runner.out)
        print(f"{name}: {call.wall:.2f} s, sha256 {call.digest[:16]}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
