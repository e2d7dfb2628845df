"""swingfreq desk-scale benchmark.

    python3 perfbench/run.py --workload {evaluate,train,certify,simulate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`./src`, so nothing needs installing.  The set-up is timed in
`SETUP_PROBES` fresh processes plus the measuring process itself; the
workload then runs in one fresh process (see `worker.py`).  Scratch outputs,
span dumps and full result records go to `.perfbench_work/`.

The last line of standard output is the result:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones (`setup_s`, `wall_s`, `peak_rss_mb`), with
`--trace 1` the per-layer ones.  The line before it holds the run context
(revision, versions, CPU count, thread caps, `src/` line count) and every
call's arguments, wall time, error and output sha256.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_PROBES = 15
# Measured calls run serially: two Python threads contending for the GIL on a
# shared host time the scheduler more than the program.  The pooled
# configuration is measured once per traced evaluate run (thread_speedup).
THREADS = 1
DEADLINE_S = 170.0
HERE = Path(__file__).resolve().parent


def _pool_threads() -> int:
    """Threads of the pooled evaluate call: 2, or fewer if the machine has fewer CPUs."""
    try:
        ncpu = len(os.sched_getaffinity(0))
    except AttributeError:
        ncpu = os.cpu_count() or 1
    return min(2, ncpu)


def _context(root: Path) -> dict:
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "swingfreq_threads": THREADS,
        "pool_threads": _pool_threads(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="swingfreq desk-scale benchmark")
    p.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "swingfreq" / "__init__.py").is_file():
        print(f"error: no swingfreq sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    # a fixed hash seed takes one source of process-to-process timing spread away
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               SWINGFREQ_THREADS=str(THREADS), PERFBENCH_POOL_THREADS=str(_pool_threads()))
    worker = [sys.executable, str(HERE / "worker.py"), str(root)]

    def run(cmd: list[str]) -> subprocess.CompletedProcess:
        left = DEADLINE_S - (time.monotonic() - started)
        return subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=max(left, 1.0))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = work / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    try:
        probes = [] if args.trace else [run(worker + ["--probe"]) for _ in range(SETUP_PROBES)]
        proc = run(worker + ["--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--result", str(result_path)])
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc.cmd[2:]} ran past the {DEADLINE_S:g} s deadline", file=sys.stderr)
        return 1
    for proc_ in probes + [proc]:
        if proc_.returncode != 0:
            print(f"error: worker exited {proc_.returncode}\n{proc_.stderr[-2000:]}",
                  file=sys.stderr)
            return 1

    doc = json.loads(result_path.read_text())
    calls = doc["calls"]
    failed = sum(c["error"] is not None for c in calls)
    values = doc["metrics"]
    if not args.trace:
        setups = [float(pr.stdout) for pr in probes] + [doc["setup_s"]]
        values["setup_s"] = statistics.median(setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    context = dict(_context(root), numpy=doc["numpy"], workload=args.workload,
                   seed=args.seed, seconds=args.seconds, trace=args.trace)
    detail = {"context": context, "calls": calls}
    if not args.trace:
        detail["setup_samples_s"] = setups
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
              "metrics": metrics}
    result_path.write_text(json.dumps(dict(detail, result=result), indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
