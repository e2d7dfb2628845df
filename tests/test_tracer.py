"""The benchmark's tracer must find every function it wraps in the package."""

import importlib
import inspect
import sys
from pathlib import Path

import swingfreq
from swingfreq import cli, controllers, dynamics, lyapunov, netmodel, training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _attributes():
    """Every module and class attribute the tracer may patch, by owner."""
    owners = [swingfreq, cli, controllers, dynamics, lyapunov, netmodel, training]
    owners += [
        cls for mod in owners[1:] for cls in vars(mod).values()
        if inspect.isclass(cls) and cls.__module__ == mod.__name__
    ]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_install_and_uninstall_restore_every_attribute(monkeypatch):
    # import without writing bytecode next to the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    monkeypatch.delitem(sys.modules, "spans")
    before = _attributes()
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = [key for key, value in _attributes().items() if before.get(key) is not value]
        assert (dynamics.BasisSignal, "features") in patched
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if before[key] is not value] == []
