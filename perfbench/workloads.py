"""The four CLI workloads: the arguments of each call and the checks on its outputs.

Every workload runs `swingfreq.cli.main(argv)` in a closed loop with one
client: the next call starts only after the previous one returned and its
outputs were checked.  Sizes are fixed, so a call does the same amount of
work whatever the seed; the seed only changes the scenarios drawn.

A call fails on a nonzero exit, an exception, or a failed output check.  The
checks are:

- every call: the output files exist, parse and hold only finite numbers;
- evaluate: `scenario_set_hash` and each row's `scenario_hash` equal hashes
  recomputed here from `make_scenarios`;
- certify: the certificate reports `"pass": true`;
- train: one finite loss per epoch;
- at the default seed: the values in `golden.json` within `GOLDEN_TOL`;
- calls with identical arguments in one run: byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CASE = "ne39"
N_BUSES = 39
EVAL_CONTROLLERS = ("droop", "pwl", "adaptive")
EVAL_SCENARIOS = 2
TRAIN_EPOCHS = 2
CERT_SCENARIOS, CERT_CALIBRATION = 8, 2
SIM_HORIZON, SIM_DT = 15.0, 0.01
SIM_REPEAT_EVERY = 8

# tighter than the suite's tightest matching gate (criterion 6: omega within 1e-8)
GOLDEN_TOL = 1e-9
GOLDEN_PATH = Path(__file__).with_name("golden.json")


class CheckError(Exception):
    """An output of a call is missing, malformed or wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _load_json(path: Path):
    _require(path.is_file(), f"missing output {path.name}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path.name} does not parse: {exc}") from None


def _numbers(doc) -> list[float]:
    """Every number in a JSON document, depth first in key order."""
    if isinstance(doc, bool) or doc is None or isinstance(doc, str):
        return []
    if isinstance(doc, (int, float)):
        return [float(doc)]
    if isinstance(doc, dict):
        return [x for k in sorted(doc) for x in _numbers(doc[k])]
    return [x for item in doc for x in _numbers(item)]


def _finite(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    _require(bool(np.all(np.isfinite(arr))), f"non-finite value in {what}")
    return arr


def output_digest(out: Path) -> str:
    """sha256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def scenario_hash(scen) -> str:
    """The evaluate table's per-scenario hash, recomputed independently."""
    doc = {
        "steps": [list(s) for s in scen.dist.steps],
        "noise_eps": scen.dist.noise_eps,
        "seed": scen.dist.seed,
        "eta": scen.basis.eta.tolist(),
        "coeffs": scen.basis.coeffs.tolist(),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:12]


# --- per-workload arguments and checks ----------------------------------------


def _simulate_argv(seed: int, i: int, out: Path) -> list[str]:
    # a new scenario on every call, except that every SIM_REPEAT_EVERY-th
    # call repeats the one before it, so a run also compares reruns byte for
    # byte; the scenario seeds of two workload seeds never meet as long as a
    # run makes fewer than 1000 calls
    k = i - (i + 1) // SIM_REPEAT_EVERY
    return ["simulate", "--case", CASE, "--controller", "droop",
            "--seed", str(seed * 1000 + k), "--out", str(out)]


def _simulate_check(out: Path, expect) -> dict[str, np.ndarray]:
    csv = out / "trajectory.csv"
    _require(csv.is_file(), "missing output trajectory.csv")
    with csv.open() as fh:
        header = fh.readline().rstrip("\n").split(",")
        blocks = ("delta", "omega", "u", "p")
        _require(
            len(header) == 1 + 4 * N_BUSES and header[0] == "t"
            and all(h.startswith(blocks[(j // N_BUSES)] + "_") for j, h in enumerate(header[1:])),
            "trajectory.csv header does not match t, delta_*, omega_*, u_*, p_*",
        )
        try:
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckError(f"trajectory.csv does not parse: {exc}") from None
    n_rec = round(SIM_HORIZON / SIM_DT) + 1
    _require(table.shape == (n_rec, 1 + 4 * N_BUSES),
             f"trajectory.csv has shape {table.shape}, expected ({n_rec}, {1 + 4 * N_BUSES})")
    _finite(table, "trajectory.csv")
    _require(bool(np.allclose(table[:, 0], np.arange(n_rec) * SIM_DT, rtol=0, atol=1e-9)),
             "trajectory.csv time column is off the recording grid")
    meta = _load_json(out / "trajectory.json")
    _finite(_numbers(meta), "trajectory.json")
    # small summaries only: the call keeps these, and the digest already
    # covers every byte of the table
    omega = table[:, 1 + N_BUSES: 1 + 2 * N_BUSES]
    return {"omega_final": omega[-1].copy(), "omega_peak": np.abs(omega).max(axis=0)}


def _evaluate_argv(seed: int, i: int, out: Path) -> list[str]:
    argv = ["evaluate", "--case", CASE]
    for c in EVAL_CONTROLLERS:
        argv += ["--controller", c]
    return argv + ["--scenarios", str(EVAL_SCENARIOS), "--seed", str(seed), "--out", str(out)]


def _evaluate_expect(seed: int):
    from swingfreq.cli import EVAL_ONSET
    from swingfreq.netmodel import bundled_case_path, load_case
    from swingfreq.training import make_scenarios

    net = load_case(bundled_case_path(CASE))
    hashes = [scenario_hash(s) for s in make_scenarios(net, EVAL_SCENARIOS, seed, onset=EVAL_ONSET)]
    set_hash = hashlib.sha256("".join(hashes).encode()).hexdigest()[:12]
    return hashes, set_hash


def _evaluate_check(out: Path, expect) -> dict[str, np.ndarray]:
    hashes, set_hash = expect
    doc = _load_json(out / "comparison.json")
    _require(doc.get("scenario_set_hash") == set_hash,
             f"scenario_set_hash {doc.get('scenario_set_hash')!r} != recomputed {set_hash!r}")
    rows = doc.get("rows", [])
    _require(len(rows) == len(EVAL_CONTROLLERS) * EVAL_SCENARIOS,
             f"{len(rows)} rows, expected {len(EVAL_CONTROLLERS) * EVAL_SCENARIOS}")
    for c in EVAL_CONTROLLERS:
        mine = [r.get("scenario_hash") for r in rows if r.get("controller") == c]
        _require(mine == hashes, f"controller {c} did not see the recomputed scenario battery")
    summary = doc.get("summary", {})
    _require(sorted(summary) == sorted(EVAL_CONTROLLERS), "summary controllers differ")
    _finite(_numbers(doc), "comparison.json")
    csv = out / "comparison.csv"
    _require(csv.is_file(), "missing output comparison.csv")
    lines = csv.read_text().splitlines()
    _require(len(lines) == 1 + len(EVAL_CONTROLLERS), "comparison.csv row count")
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = line.split(",")
        _require(len(cells) == len(header) and cells[1] == set_hash,
                 "comparison.csv row does not carry the scenario-set hash")
        try:
            nums = [float(x) for x in cells[2:]]
        except ValueError:
            raise CheckError("comparison.csv has a non-numeric cell") from None
        _finite(nums, "comparison.csv")
        stats = summary[cells[0]]
        _require(all(stats[h] == v for h, v in zip(header[2:], nums)),
                 f"comparison.csv disagrees with comparison.json for {cells[0]}")
    return {
        "summary": np.array(_numbers(summary)),
        "rows": np.array(_numbers(rows)),
    }


def _train_argv(seed: int, i: int, out: Path) -> list[str]:
    return ["train", "--case", CASE, "--controller", "adaptive", "--scenarios", "50",
            "--batch-size", "25", "--epochs", str(TRAIN_EPOCHS), "--seed", str(seed),
            "--log-every", str(TRAIN_EPOCHS), "--out", str(out)]


def _train_check(out: Path, expect) -> dict[str, np.ndarray]:
    doc = _load_json(out / "checkpoint.json")
    losses = doc.get("losses")
    _require(isinstance(losses, list) and len(losses) == TRAIN_EPOCHS,
             f"expected {TRAIN_EPOCHS} losses, got {losses!r:.80}")
    _require(doc.get("config", {}).get("epochs_done") == TRAIN_EPOCHS, "epochs_done")
    _finite(_numbers(doc), "checkpoint.json")
    return {
        "losses": np.array(losses, dtype=float),
        "controller": np.array(_numbers(doc["controller"])),
        "optimizer": np.array(_numbers(doc.get("optimizer", {}))),
    }


def _certify_argv(seed: int, i: int, out: Path) -> list[str]:
    # CLI defaults except the battery sizes, cut from 20 + 5 to 8 + 2 rollouts
    # so that a run holds several calls; calibration stays 20% of the rollouts
    return ["certify", "--case", CASE, "--controller", "adaptive",
            "--scenarios", str(CERT_SCENARIOS), "--calibration", str(CERT_CALIBRATION),
            "--seed", str(seed), "--out", str(out)]


def _certify_check(out: Path, expect) -> dict[str, np.ndarray]:
    doc = _load_json(out / "certificate.json")
    _require(doc.get("pass") is True, "certificate does not report pass: true")
    _require(doc.get("n_trajectories") == CERT_SCENARIOS, "certificate trajectory count")
    _finite(_numbers(doc), "certificate.json")
    return {"certificate": np.array(_numbers(doc))}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, int, Path], list[str]]
    check: Callable[[Path, object], dict[str, np.ndarray]]
    expect: Callable[[int], object] = lambda seed: None
    golden_keys: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("evaluate", _evaluate_argv, _evaluate_check, _evaluate_expect,
                 golden_keys=("summary",)),
        Workload("train", _train_argv, _train_check,
                 golden_keys=("losses", "controller")),
        Workload("certify", _certify_argv, _certify_check, golden_keys=("certificate",)),
        Workload("simulate", _simulate_argv, _simulate_check,
                 golden_keys=("omega_final", "omega_peak")),
    )
}


# --- golden values and result drift ---------------------------------------------


def golden_key(argv: list[str]) -> str:
    """Arguments of a call without its output directory."""
    return " ".join(argv[:-2] if argv[-2] == "--out" else argv)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def check_golden(golden: dict, argv: list[str], values: dict[str, np.ndarray]) -> None:
    """Compare against the stored values when this call's arguments have any."""
    entry = golden.get(golden_key(argv))
    if entry is None:
        return
    for key, ref in entry["values"].items():
        got, ref = values[key], np.asarray(ref, dtype=float)
        _require(got.shape == ref.shape, f"golden {key}: shape {got.shape} != {ref.shape}")
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        worst = float(err.max()) if err.size else 0.0
        _require(worst <= GOLDEN_TOL, f"golden {key}: deviates by {worst:.3e} > {GOLDEN_TOL:g}")


def drift(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> float:
    """Largest absolute difference between two checked calls' output values.

    The checks fix every shape, so two calls of one workload always align.
    """
    return max((float(np.abs(a[k] - b[k]).max()) for k in a if a[k].size), default=0.0)
