"""The benchmark's golden gate: call 0 of each workload at seed 0 reproduces
the stored output values within the benchmark's tolerance."""

import importlib
import sys
from pathlib import Path

import pytest

from swingfreq.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # import without writing bytecode next to the benchmark's sources
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(PERFBENCH))
        mp.delitem(sys.modules, "workloads", raising=False)
        module = importlib.import_module("workloads")
        mp.delitem(sys.modules, "workloads")
    return module


@pytest.mark.parametrize("name", ["evaluate", "train", "certify", "simulate"])
def test_seed_zero_call_matches_golden(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    argv = wl.argv(0, 0, tmp_path)
    golden = workloads.load_golden()
    assert workloads.golden_key(argv) in golden
    assert main(argv) == 0
    values = wl.check(tmp_path, wl.expect(0))
    workloads.check_golden(golden, argv, values)
