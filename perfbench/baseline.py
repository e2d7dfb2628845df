"""Measure every workload over several seeds and write the figures to a JSON file.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Run from a checkout root.  For each workload in BENCHMARK.json this makes
one untraced run per seed (seeds 1..10), then one traced run at seed 0, one
after another.
It records the median and quartiles of each end-to-end metric, their spread
(quartile distance over the median), every run's value, and the traced
run's per-layer metrics, together with the run context.  Comparing two such
files from the same machine shows what a change did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return detail, result


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = p.parse_args()

    doc: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, context = [], None
        for seed in SEEDS:
            detail, result = _run(workload, seed, spec["run_seconds"], 0)
            context = detail["context"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "sha256": [c["sha256"] for c in detail["calls"]],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
        end_to_end = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            end_to_end[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / med, "bound": m["bound"]}
            print(f"{workload:9s} {m['name']:12s} median {med:.4g} {m['unit']}  "
                  f"spread {(q3 - q1) / med:.3f} (bound {m['bound']})", flush=True)
        detail, result = _run(workload, 0, spec["run_seconds"], 1)
        doc["workloads"][workload] = {
            "context": context,
            "end_to_end": end_to_end,
            "runs": runs,
            "traced": {"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"],
                       "per_layer": {k: v["value"] for k, v in result["metrics"].items()}},
        }
        print(f"{workload:9s} failed calls {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)}; traced run failed {result['failed']}",
              flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
