"""One fresh benchmark process: set up swingfreq, then run one workload.

    python3 perfbench/worker.py --probe ROOT
        time the set-up only and print it in seconds
    python3 perfbench/worker.py ROOT --workload W --seed N --seconds S --trace 0|1 --result PATH

`run.py` starts this with `PYTHONPATH=ROOT/src` and `SWINGFREQ_THREADS` set.
Calls go through `swingfreq.cli.main(argv)` one after another until
`--seconds` have passed (at least one call).  With `--trace 1` the process
makes untraced reference calls for the first third of that time (plus, for
evaluate, one call with `SWINGFREQ_THREADS=$PERFBENCH_POOL_THREADS`), then
installs the tracer and makes traced calls for the rest.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


# numpy, swingfreq and the modules that use them (workloads, spans) are
# imported inside functions, after setup() has timed the first import.


def setup(root: Path) -> float:
    """Import numpy and swingfreq, load ne39 and solve its equilibrium; seconds taken."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import swingfreq
    import swingfreq.cli  # noqa: F401
    from swingfreq.netmodel import bundled_case_path, load_case, solve_equilibrium

    solve_equilibrium(load_case(bundled_case_path("ne39")))
    elapsed = time.perf_counter() - t0
    src = (root / "src").resolve()
    if src not in Path(swingfreq.__file__).resolve().parents:
        raise SystemExit(f"swingfreq was imported from {swingfreq.__file__}, not from {src}")
    return elapsed


@dataclass
class Call:
    argv: list[str]
    wall: float
    error: str | None
    digest: str | None = None
    # outputs byte-identical to golden.json's; informational only, since the
    # last bits may differ on another machine (the values are checked within
    # GOLDEN_TOL instead)
    golden_digest: bool | None = None
    values: dict = field(default_factory=dict, repr=False)

    def record(self) -> dict:
        return {"argv": self.argv[:-2], "wall_s": self.wall, "error": self.error,
                "sha256": self.digest, "sha256_matches_golden": self.golden_digest}


class Runner:
    """Makes checked CLI calls of one workload into a scratch output directory."""

    def __init__(self, workload, seed: int, out: Path) -> None:
        import swingfreq.cli

        from workloads import load_golden

        self.cli = swingfreq.cli
        self.wl = workload
        self.seed = seed
        self.out = out
        self.expect = workload.expect(seed)
        self.golden = load_golden()

    def verify(self, out: Path, argv: list[str]) -> tuple[dict, str]:
        """Check a call's outputs against its workload and golden.json.

        Returns the checked values and the outputs' sha256; raises on a bad output.
        """
        from workloads import check_golden, output_digest

        values = self.wl.check(out, self.expect)
        check_golden(self.golden, argv, values)
        return values, output_digest(out)

    def call(self, i: int) -> Call:
        from workloads import golden_key

        argv = self.wl.argv(self.seed, i, self.out)
        shutil.rmtree(self.out, ignore_errors=True)
        sink = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.main(argv)
            if rc != 0:
                error = f"exit code {rc}: {sink.getvalue()[-300:]}"
        except SystemExit as exc:
            error = f"exit {exc.code}: {sink.getvalue()[-300:]}"
        except Exception as exc:  # a crash fails this call; the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        call = Call(argv, wall, error)
        if error is None:
            try:
                call.values, call.digest = self.verify(self.out, argv)
            except Exception as exc:  # a malformed output fails this call, not the run
                call.error = f"check failed: {type(exc).__name__}: {exc}"
        entry = self.golden.get(golden_key(argv))
        if entry is not None and call.digest is not None:
            call.golden_digest = entry["sha256"] == call.digest
        return call

    def loop(self, start: float, seconds: float, first: int = 0) -> list[Call]:
        """Closed loop: call until `seconds` after `start`, at least once."""
        calls = []
        while not calls or time.perf_counter() - start < seconds:
            calls.append(self.call(first + len(calls)))
        return calls


def compare_reruns(calls: list[Call]) -> float:
    """Fail calls whose outputs differ from an earlier call with the same arguments.

    Returns the largest absolute difference of any output value between such
    calls (0 when every rerun is byte-identical).
    """
    from workloads import drift, golden_key

    first: dict[str, Call] = {}
    worst = 0.0
    for c in calls:
        if c.error is not None:
            continue
        ref = first.setdefault(golden_key(c.argv), c)
        if ref is c or c.digest == ref.digest:
            continue
        c.error = "output differs from an earlier call with the same arguments"
        with contextlib.suppress(Exception):  # values that do not even align
            worst = max(worst, drift(ref.values, c.values))
    return worst


def untraced_metrics(calls: list[Call]) -> dict:
    return {
        "wall_s": statistics.median(c.wall for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(runner: Runner, workload: str, seconds: float, work: Path) -> tuple[list[Call], dict]:
    import numpy as np

    from spans import BUSY, LAYERS, SPAN_NAMES, Tracer, check_tree, self_times

    # untraced reference calls fill the first third of the window
    start = time.perf_counter()
    untraced = runner.loop(start, seconds / 3)
    ref_wall = statistics.median(c.wall for c in untraced)
    calls = list(untraced)
    pooled = None
    if workload == "evaluate":
        cap = os.environ["SWINGFREQ_THREADS"]
        os.environ["SWINGFREQ_THREADS"] = os.environ["PERFBENCH_POOL_THREADS"]
        try:
            pooled = runner.call(0)
        finally:
            os.environ["SWINGFREQ_THREADS"] = cap
        calls.append(pooled)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.loop(start, seconds)
    finally:
        tracer.uninstall()
    calls += traced
    tracer.write(work / f"spans-{workload}.npz")

    n = len(traced)
    wall = sum(c.wall for c in traced)
    ids, names, parents, t0, t1, threads = tracer.spans()
    check_tree(ids, parents, t0, t1)
    own = self_times(ids, parents, t0, t1, threads)
    dur = t1 - t0
    k = len(SPAN_NAMES)
    count = np.bincount(names, minlength=k)
    self_s = np.bincount(names, weights=own, minlength=k)
    busy = np.bincount(names, weights=dur, minlength=k)
    idx = {name: j for j, name in enumerate(SPAN_NAMES)}

    m: dict[str, float] = {}
    for j, name in enumerate(SPAN_NAMES):
        m[f"{name}.calls"] = count[j] / n
        m[f"{name}.self_s"] = self_s[j] / n
    for name in BUSY:
        m[f"{name}.busy_s"] = busy[idx[name]] / n
    for layer in LAYERS:
        js = [j for j, name in enumerate(SPAN_NAMES) if name.startswith(layer + ".")]
        m[f"{layer}.errors"] = float(sum(tracer.errors[j] for j in js))
        m[f"{layer}.self_share"] = float(self_s[js].sum()) / wall

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    roll_busy = busy[idx["dynamics.rollout"]]
    m["dynamics.rollout.steps"] = tracer.rollout_steps / n
    m["dynamics.rk4_step_us"] = per(roll_busy, tracer.rollout_steps, 1e6)
    m["training.grad_loss.scenario_steps"] = tracer.scenario_steps / n
    m["training.scenario_step_us"] = per(busy[idx["training.grad_loss"]], tracer.scenario_steps, 1e6)
    m["dynamics.write_csv.bytes"] = tracer.csv_bytes / n
    m["dynamics.write_csv.mb_per_s"] = per(
        tracer.csv_bytes, busy[idx["dynamics.Trajectory.write_csv"]], 1e-6)
    m["cli.evaluate.busy_ratio"] = per(roll_busy, wall) if pooled is not None else 0.0
    m["cli.evaluate.thread_speedup"] = per(ref_wall, pooled.wall) if pooled is not None else 0.0
    m["cli.result_drift"] = compare_reruns(calls)
    m["trace.overhead_frac"] = statistics.median(c.wall for c in traced) / ref_wall - 1.0
    roots = float(dur[parents < 0].sum())
    m["trace.untraced_share"] = (wall - roots) / wall
    m["trace.parallel_share"] = (float(own.sum()) - roots) / wall
    m["trace.spans"] = len(ids) / n
    return calls, m


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", type=Path)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", type=Path)
    args = p.parse_args(argv)

    setup_s = setup(args.root)
    if args.probe:
        print(repr(setup_s))
        return 0

    import numpy as np

    from workloads import WORKLOADS

    work = args.result.parent
    runner = Runner(WORKLOADS[args.workload], args.seed, work / f"out-{args.workload}")
    if args.trace:
        calls, metrics = traced_run(runner, args.workload, args.seconds, work)
    else:
        calls = runner.loop(time.perf_counter(), args.seconds)
        compare_reruns(calls)
        metrics = untraced_metrics(calls)
    shutil.rmtree(runner.out, ignore_errors=True)
    doc = {
        "setup_s": setup_s,
        "numpy": np.__version__,
        "metrics": metrics,
        "calls": [c.record() for c in calls],
    }
    args.result.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
