"""Show that every output check rejects a perturbed result.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Run from a checkout root.  Makes one real call of each workload at the
default seed, confirms that its outputs pass, then damages a copy of them in
one way at a time and confirms that the checks reject each damaged copy.
The exit-code, exception and rerun-identity paths, and the span-tree guard
of traced runs, are exercised with stub calls and spans.  Prints one line
per case and exits 1 if any damage went unnoticed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from spans import check_tree
from workloads import WORKLOADS


def _edit_json(name: str, edit):
    def apply(out: Path) -> None:
        path = out / name
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return apply


def _edit_text(name: str, edit):
    def apply(out: Path) -> None:
        path = out / name
        path.write_text(edit(path.read_text()))
    return apply


def _delete(name: str):
    return lambda out: (out / name).unlink()


def _both(*damages):
    def apply(out: Path) -> None:
        for damage in damages:
            damage(out)
    return apply


def _bump(x: float, by: float = 1e-8) -> float:
    return x + by * max(1.0, abs(x))


def _csv_cell(text: str, row: int, col: int, edit) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = edit(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def _set(path: tuple, value):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value(doc[path[-1]]) if callable(value) else value
    return edit


OMEGA_COL = 1 + 39  # first omega column of trajectory.csv

DAMAGE = {
    "simulate": {
        "trajectory.csv missing": _delete("trajectory.csv"),
        "trajectory.json missing": _delete("trajectory.json"),
        "csv truncated by one record": _edit_text(
            "trajectory.csv", lambda t: t.rstrip("\n").rsplit("\n", 1)[0] + "\n"),
        "csv cell unparseable": _edit_text(
            "trajectory.csv", lambda t: _csv_cell(t, 5, 3, lambda c: "x" + c)),
        "csv omega NaN": _edit_text(
            "trajectory.csv", lambda t: _csv_cell(t, 700, OMEGA_COL, lambda c: "nan")),
        "csv header renamed": _edit_text("trajectory.csv", lambda t: t.replace("omega_", "w_", 1)),
        "csv time off grid": _edit_text(
            "trajectory.csv", lambda t: _csv_cell(t, 9, 0, lambda c: repr(float(c) + 1e-6))),
        "json unparseable": _edit_text("trajectory.json", lambda t: t[: len(t) // 2]),
        "golden final omega +1e-8": _edit_text(
            "trajectory.csv",
            lambda t: _csv_cell(t, 1501, OMEGA_COL, lambda c: repr(_bump(float(c))))),
    },
    "evaluate": {
        "comparison.json missing": _delete("comparison.json"),
        "comparison.csv missing": _delete("comparison.csv"),
        "scenario_set_hash altered": _edit_json(
            "comparison.json", _set(("scenario_set_hash",), "000000000000")),
        "row scenario_hash altered": _edit_json(
            "comparison.json", _set(("rows", 0, "scenario_hash"), "000000000000")),
        "row dropped": _edit_json("comparison.json", lambda d: d["rows"].pop()),
        "summary NaN": _edit_json(
            "comparison.json", _set(("summary", "pwl", "nadir_mean"), float("nan"))),
        "csv disagrees with json": _edit_text(
            "comparison.csv", lambda t: _csv_cell(t, 1, 3, lambda c: repr(_bump(float(c), 1e-3)))),
        # the table and the JSON stay consistent, so only the golden check can object
        "golden transient mean +1e-8": _both(
            _edit_json("comparison.json", _set(("summary", "adaptive", "transient_loss_mean"), _bump)),
            _edit_text("comparison.csv",
                       lambda t: _csv_cell(t, 3, 3, lambda c: repr(_bump(float(c))))),
        ),
    },
    "train": {
        "checkpoint.json missing": _delete("checkpoint.json"),
        "checkpoint.json unparseable": _edit_text("checkpoint.json", lambda t: t[:-40]),
        "loss NaN": _edit_json("checkpoint.json", _set(("losses", 0), float("nan"))),
        "loss missing": _edit_json("checkpoint.json", lambda d: d["losses"].pop()),
        "controller parameter inf": _edit_json(
            "checkpoint.json", _set(("controller", "raw_rate", 0, 0), float("inf"))),
        "controller section missing": _edit_json("checkpoint.json", lambda d: d.pop("controller")),
        "golden last loss +1e-8": _edit_json("checkpoint.json", _set(("losses", -1), _bump)),
    },
    "certify": {
        "certificate.json missing": _delete("certificate.json"),
        "certificate fails": _edit_json("certificate.json", _set(("pass",), False)),
        "gamma1 NaN": _edit_json("certificate.json", _set(("gamma1",), float("nan"))),
        "golden worst margin +1e-8": _edit_json("certificate.json", _set(("worst_margin",), _bump)),
    },
}


def _check(runner, out: Path, argv) -> str | None:
    try:
        runner.verify(out, argv)
    except Exception as exc:  # as in Runner.call, any error rejects the output
        return f"{type(exc).__name__}: {exc}"
    return None


def main() -> int:
    from worker import Call, Runner, compare_reruns

    work = Path.cwd() / ".perfbench_work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    missed = 0

    def report(case: str, reason: str | None) -> None:
        nonlocal missed
        missed += reason is None
        print(f"{'rejected' if reason else 'MISSED  '}  {case}" + (f": {reason}" if reason else ""))

    for name, wl in WORKLOADS.items():
        runner = Runner(wl, 0, work / name)
        call = runner.call(0)
        if call.error is not None:
            print(f"{name}: the undamaged call fails: {call.error}")
            return 1
        if not runner.golden:
            print("golden.json is missing; the golden checks cannot be shown")
            return 1
        print(f"passes    {name} seed 0 ({call.wall:.1f} s)")
        for case, damage in DAMAGE[name].items():
            copy = work / f"{name}-damaged"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(runner.out, copy)
            damage(copy)
            report(f"{name}: {case}", _check(runner, copy, call.argv))

        if name == "simulate":
            real_main = runner.cli.main
            for case, stub in (("nonzero exit", lambda argv: 2),
                               ("exception", lambda argv: 1 / 0)):
                runner.cli.main = stub
                try:
                    report(f"cli: {case}", runner.call(0).error)
                finally:
                    runner.cli.main = real_main
            twin = Call(call.argv, call.wall, None, digest="0" * 64, values=call.values)
            compare_reruns([call, twin])
            report("rerun with different output bytes", twin.error)

    # the span-tree guard of traced runs: a root span 0 over [0, 3] s and a
    # child span 1 that names a missing parent, or ends after its parent
    ids, t0 = np.array([0, 1]), np.array([0.0, 1.0])
    for case, parents, t1 in (("span with an unrecorded parent", [-1, 7], [3.0, 2.0]),
                              ("span reaching outside its parent", [-1, 0], [3.0, 4.0])):
        try:
            check_tree(ids, np.array(parents), t0, np.array(t1))
            reason = None
        except SystemExit as exc:
            reason = str(exc)
        report(f"trace: {case}", reason)
    shutil.rmtree(work, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
