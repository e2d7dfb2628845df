"""Show that the test suite kills each listed mutant of the package.

    python3 tests/mutants.py [NAME ...]

Run from a checkout root.  For each mutant (all of them, or those named),
copies `src/` to a temporary directory, applies the mutant's source edits
(exact old -> new strings; an edit whose old string is missing or appears
more than once is refused) and runs the mutant's tests against the copy.
The mutant is killed when one of them fails or errors.  The tests first
run once against an unedited copy, where all must pass (else exit 2).
Prints one line per mutant with the tests that failed, and exits 1 if a
mutant survived or could not be applied.  The file name keeps pytest from
collecting it; the eight mutants below take about 32 s on a 2-CPU host.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    edits: tuple[tuple[str, str, str], ...]  # (file under src/swingfreq, old, new)
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout root


GAMMA_TESTS = "tests/test_lyapunov.py::TestGammaBounds"

MUTANTS = (
    Mutant(
        "MARGIN_SAFETY x 10",
        (("lyapunov.py", "MARGIN_SAFETY = 4.0 ", "MARGIN_SAFETY = 40.0 "),),
        ("tests/test_cli.py::TestCertify",),
    ),
    Mutant(
        "compute_gammas skip gap eps with its sign flipped",
        (("lyapunov.py", "_GAMMA_EPS = 1e-6 ", "_GAMMA_EPS = -1e-6 "),),
        (GAMMA_TESTS,),
    ),
    Mutant(
        "compute_gammas skips every sample after the first chunk",
        (("lyapunov.py", "return ~(above & below)", "return np.zeros(m, dtype=bool)"),),
        (GAMMA_TESTS,),
    ),
    Mutant(
        "droop VJP without the softplus chain factor",
        (("controllers.py", ".sum(axis=0) * self._dgains", ".sum(axis=0)"),),
        ("tests/test_training.py::TestGradients",),
    ),
    Mutant(
        "PWL slope VJP without the moment term",
        (("controllers.py", "(total.dot(self._overlap) + moment)", "total.dot(self._overlap)"),),
        ("tests/test_controllers.py::TestPWLSegmentTable::test_vjp_matches_overlaps",),
    ),
    Mutant(
        "adjoint drops the damping term",
        (("training.py", "lam_w + dt * lam_dp - dt_D * g_m", "lam_w + dt * lam_dp"),),
        ("tests/test_training.py::TestGradients::test_blocked_adjoint_matches_per_step_sweep",),
    ),
    Mutant(
        "adaptation without its rate",
        (("controllers.py", "np.multiply(omega * self._rates_like(omega), phi",
          "np.multiply(omega, phi"),),
        ("tests/test_training.py::TestGradients::test_matches_finite_differences_all_types",),
    ),
    Mutant(
        "hard-max seed at the last maximizer",
        (("training.py", "later = top > best", "later = top >= best"),),
        ("tests/test_training.py::TestBlockedLossTerms",),
    ),
)


class EditRefused(ValueError):
    pass


def _apply(src: Path, edits) -> None:
    for file, old, new in edits:
        path = src / "swingfreq" / file
        text = path.read_text()
        count = text.count(old)
        if count != 1:
            raise EditRefused(f"{file}: {old!r} occurs {count} times, not once")
        path.write_text(text.replace(old, new))


def _failed_tests(src: Path, tests) -> tuple[int, list[str]]:
    """Run `tests` with the package imported from `src`; pytest's exit code
    and the ids of the tests that failed or raised an error."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    return proc.returncode, re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)


def _copy_src(tmp: Path, name: str) -> Path:
    src = tmp / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(argv: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutant(s): {unknown}; known: {list(known)}", file=sys.stderr)
        return 2
    mutants = [known[name] for name in argv] or list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="swingfreq-mutants-") as tmp:
        tmp = Path(tmp)
        tests = sorted({t for m in mutants for t in m.tests})
        code, failed = _failed_tests(_copy_src(tmp, "clean"), tests)
        if code != 0:
            print(f"the unedited copy fails its tests (pytest exit {code}): {failed}")
            return 2
        bad = 0
        for i, mutant in enumerate(mutants):
            src = _copy_src(tmp, f"mutant{i}")
            try:
                _apply(src, mutant.edits)
            except EditRefused as exc:
                print(f"REFUSED   {mutant.name}: {exc}")
                bad += 1
                continue
            code, failed = _failed_tests(src, mutant.tests)
            if code != 0 and failed:
                print(f"killed    {mutant.name}: {', '.join(failed)}")
            else:
                print(f"SURVIVED  {mutant.name} (pytest exit {code})")
                bad += 1
        print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
