"""Span tracing of swingfreq's public functions, installed from outside the package.

`Tracer.install()` replaces each function listed in `LAYERS` with a wrapper
wherever the package holds a reference to it: the defining module, every
module that re-imported the name (`cli`, `dynamics`, `training`, `lyapunov`)
and, for methods, the defining class.  Each call records one span: name,
start, end, parent span id and thread.  Spans stay in memory (compact
arrays) until `write()` saves them at the end of the run.

Private helpers are deliberately not wrapped, so `training._grad_S_batch`,
`_hvp_batch` and `_forward` are invisible: on the train workload
`netmodel.grad_S.calls` counts only the equilibrium solve, although the
integrator does the same arithmetic on every step.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from array import array
from pathlib import Path

# layer -> wrapped functions; "Class.method" names a method of that class.
# For `controllers` the names are methods, wrapped on every Controller
# subclass that defines them and summed by method.
LAYERS: dict[str, tuple[str, ...]] = {
    "netmodel": ("load_case", "solve_equilibrium", "grad_S", "hessian_S", "hess_S_vecprod"),
    "controllers": (
        "control", "control_cached", "control_wrt_omega", "control_vjp_raw",
        "adaptation", "adaptation_vjp", "control_vjp_ahat",
    ),
    "dynamics": (
        "rollout", "step", "BasisSignal.features", "Disturbance.injection",
        "Trajectory.write_csv", "Trajectory.write_meta",
    ),
    "training": (
        "make_scenarios", "grad_loss", "batch_loss", "train", "AdamState.update",
        "transient_loss", "restoration_cost",
    ),
    "lyapunov": ("compute_gammas", "fit_margin_constant", "check_decrease", "estimate_roa"),
    "cli": ("main",),
}

# inclusive ("busy") time is reported for these entry points only
BUSY = ("cli.main", "dynamics.rollout", "training.train", "training.grad_loss",
        "lyapunov.compute_gammas")

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Wraps the listed functions and records one span per call.

    Spans are stored per thread as flat records (id, name index, parent id,
    start, end) so recording takes no lock.  A span opened on a thread with
    no open span of its own (an evaluate pool worker) takes as parent the
    innermost open span of the thread that installed the tracer, which is
    the call that started the pool.
    """

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[tuple[array, array]] = []  # per thread: ints, times
        self._buffers_lock = threading.Lock()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []
        self.errors = [0] * len(SPAN_NAMES)
        # counters the derived metrics need, filled by the wrappers below
        self.rollout_steps = 0
        self.scenario_steps = 0
        self.csv_bytes = 0

    # -- recording ----------------------------------------------------------

    def _thread_state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            ints, times = array("q"), array("d")
            if threading.get_ident() == self._main_thread:
                stack = self._main_stack
            else:
                stack = []
            st = self._local.state = (stack, ints, times)
            with self._buffers_lock:
                self._buffers.append((ints, times))
        return st

    def _wrap(self, fn, name_idx: int, meter=None):
        clock = time.perf_counter
        ids = self._ids
        main_stack = self._main_stack
        errors = self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, ints, times = self._thread_state()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[name_idx] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                ints.extend((sid, name_idx, parent))
                times.extend((t0, t1))
            if meter is not None:
                meter(out, args, kwargs)
            return out

        return traced

    # -- meters for the derived per-layer metrics ----------------------------

    def _meter_rollout(self, traj, args, kwargs):
        self.rollout_steps += traj.n_records - 1

    def _meter_grad_loss(self, out, args, kwargs):
        from swingfreq.training import Scenario

        scen, cost = args[2], args[3]
        n_scen = 1 if isinstance(scen, Scenario) else len(scen)
        self.scenario_steps += n_scen * round(cost.T / kwargs.get("dt", 0.01))

    def _meter_write_csv(self, out, args, kwargs):
        self.csv_bytes += Path(args[1]).stat().st_size

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every reference the package holds to a listed function."""
        import swingfreq
        from swingfreq import cli, controllers, dynamics, lyapunov, netmodel, training

        modules = {
            "netmodel": netmodel, "controllers": controllers, "dynamics": dynamics,
            "training": training, "lyapunov": lyapunov, "cli": cli,
        }
        all_modules = list(modules.values()) + [swingfreq]
        meters = {
            "dynamics.rollout": self._meter_rollout,
            "training.grad_loss": self._meter_grad_loss,
            "dynamics.Trajectory.write_csv": self._meter_write_csv,
        }
        for idx, span in enumerate(SPAN_NAMES):
            layer, fn_name = span.split(".", 1)
            mod = modules[layer]
            if layer == "controllers":
                owners = [
                    cls for cls in vars(mod).values()
                    if inspect.isclass(cls) and issubclass(cls, controllers.Controller)
                    and cls.__module__ == mod.__name__
                ]
                found = False
                for cls in owners:
                    fn = cls.__dict__.get(fn_name)
                    if fn is None or getattr(fn, "__isabstractmethod__", False):
                        continue
                    self._patch(cls, fn_name, self._wrap(fn, idx))
                    found = True
                if not found:
                    raise LookupError(f"no controller defines {fn_name}")
            elif "." in fn_name:
                cls_name, meth = fn_name.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(cls.__dict__[meth], idx, meters.get(span)))
            else:
                fn = getattr(mod, fn_name)
                wrapped = self._wrap(fn, idx, meters.get(span))
                for m in all_modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------------

    def spans(self):
        """All recorded spans as numpy arrays (ids, name index, parent, start, end, thread)."""
        import numpy as np

        ids, names, parents, t0, t1, threads = [], [], [], [], [], []
        for tno, (ints, times) in enumerate(self._buffers):
            iv = np.frombuffer(ints, dtype=np.int64).reshape(-1, 3)
            tv = np.frombuffer(times, dtype=np.float64).reshape(-1, 2)
            ids.append(iv[:, 0])
            names.append(iv[:, 1])
            parents.append(iv[:, 2])
            t0.append(tv[:, 0])
            t1.append(tv[:, 1])
            threads.append(np.full(len(iv), tno))
        if not ids:
            empty_i, empty_f = np.zeros(0, np.int64), np.zeros(0)
            return empty_i, empty_i, empty_i, empty_f, empty_f, empty_i
        cat = np.concatenate
        return cat(ids), cat(names), cat(parents), cat(t0), cat(t1), cat(threads)

    def write(self, path: Path) -> None:
        import numpy as np

        ids, names, parents, t0, t1, threads = self.spans()
        np.savez_compressed(
            path, id=ids, name=names, parent=parents, start=t0, end=t1, thread=threads,
            names=np.array(SPAN_NAMES),
        )


def check_tree(ids, parents, t0, t1) -> None:
    """Stop the run unless every span's parent was recorded and encloses it in time."""
    import numpy as np

    kids = np.flatnonzero(parents >= 0)
    pos = np.full(int(max(ids.max(), parents.max())) + 1 if len(ids) else 0, -1)
    pos[ids] = np.arange(len(ids))
    ppos = pos[parents[kids]]
    if (ppos < 0).any():
        raise SystemExit(f"span tree is broken: {int((ppos < 0).sum())} spans name an "
                         "unrecorded parent")
    outside = (t0[kids] < t0[ppos]) | (t1[kids] > t1[ppos])
    if outside.any():
        raise SystemExit(f"span tree is broken: {int(outside.sum())} spans reach outside "
                         "their parent")


def self_times(ids, parents, t0, t1, threads):
    """Per-span self time: duration minus the part of it its children cover.

    Children on the parent's own thread nest and never overlap, so their
    durations add up.  A parent with children on other threads (the pool
    that runs evaluate's rollouts) gets the measure of the union instead.
    """
    import numpy as np

    dur = t1 - t0
    pos = np.full(int(ids.max()) + 1 if len(ids) else 0, -1)
    pos[ids] = np.arange(len(ids))
    has_parent = parents >= 0
    ppos = np.where(has_parent, pos[np.where(has_parent, parents, 0)], -1)
    cover = np.zeros(len(ids))
    same = has_parent & (threads == threads[np.maximum(ppos, 0)])
    np.add.at(cover, ppos[same], dur[same])
    for p in np.unique(ppos[has_parent & ~same]):
        kids = np.flatnonzero(ppos == p)
        lo = np.clip(t0[kids], t0[p], t1[p])
        hi = np.clip(t1[kids], t0[p], t1[p])
        order = np.argsort(lo)
        covered, end = 0.0, -np.inf
        for a, b in zip(lo[order], hi[order]):
            if b <= end:
                continue
            covered += b - max(a, end)
            end = b
        cover[p] = covered
    return dur - cover
