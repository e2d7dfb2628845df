"""Swing dynamics in center-of-inertia coordinates.

The integrated system couples per-bus angles and frequency deviations with
the adaptive estimates of the active controller:

    d(delta_i)/dt = omega_i - mean(omega)
    M_i d(omega_i)/dt = p_i(t) - D_i omega_i - u_i - sum_j B_ij sin(delta_ij)
    d(ahat_i)/dt = omega_i * A_i phi_i(t)          (adaptive controllers)

with net injection p_i(t) = p_star_i + phi_i(t).a_i plus step disturbances
and optional per-step uniform noise.  The default integrator is classical
RK4 with the smooth basis evaluated at sub-stage times; explicit Euler is
available behind a flag and is the forward pass the training module
differentiates through.  Step injections and noise are held constant across
one integration step (zero-order hold anchored at the step start), so
trajectories are piecewise-smooth with breakpoints exactly on the recording
grid.

Angles are re-projected to the COI gauge (zero mean) after every step.

There is one integrator, `_integrate`: it advances a `ScenarioStack` (the one
path from scenarios to stacked arrays: a stacked `BasisSignal` and one
stream of per-step injections) with state shape (B, n), evaluating features,
injections and the controller for every scenario in one call per stage, and
returns time-major histories of what it is asked to record, or hands each
record's state to an observer.  `rollout_batch` wraps it for scenario
batteries, `rollout` is the batch-of-one case, `step` advances a lone state
through the same stage code, training calls `_integrate` directly for its
Euler forward pass, and certification observes instead of recording.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .controllers import Controller
from .netmodel import Network, coi_project, grad_S, solve_equilibrium

__all__ = [
    "BasisSignal",
    "Disturbance",
    "IntegrationError",
    "Scenario",
    "ScenarioStack",
    "SystemState",
    "Trajectory",
    "equilibrium_state",
    "make_constant_basis",
    "make_sinusoid_basis",
    "rollout",
    "rollout_batch",
    "step",
]


class IntegrationError(RuntimeError):
    """State became non-finite while integrating.

    The integrator sets `row` (the first non-finite batch row), `step` and
    `t`, so a caller can name the offending scenario in its own terms.
    """

    def __init__(self, message: str, *, row=None, step=None, t=None):
        super().__init__(message)
        self.row, self.step, self.t = row, step, t


@dataclass(frozen=True, eq=False)
class SystemState:
    """COI angles, frequency deviations, and adaptive estimates.

    `a_hat` has shape (n, l) where l is the controller's feature count;
    l = 0 for non-adaptive controllers.
    """

    delta: np.ndarray
    omega: np.ndarray
    a_hat: np.ndarray

    def __post_init__(self) -> None:
        for name in ("delta", "omega", "a_hat"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = self.delta.shape[0]
        if self.omega.shape != (n,) or self.a_hat.ndim != 2 or self.a_hat.shape[0] != n:
            raise ValueError("inconsistent state shapes")

    @property
    def n(self) -> int:
        return self.delta.shape[0]


@dataclass(frozen=True, eq=False)
class BasisSignal:
    """Per-bus feature vectors phi_i(k) = (sin(eta_i^1 k), ..., 1) over k = t/dt_ref.

    `eta` holds the sinusoid step-frequencies, one row per bus (zero columns
    for a constant-only basis); `coeffs` the true coefficients a_i, with the
    trailing column always belonging to the constant-1 feature.  The feature
    index k advances by 1 per `dt_ref` of simulated time regardless of the
    integration step, and is evaluated at fractional k for sub-stage times.
    A battery's bases stack into one signal, `eta` (B, n, m), `coeffs` (B, n, m+1).
    """

    eta: np.ndarray
    coeffs: np.ndarray
    dt_ref: float = 0.01

    def __post_init__(self) -> None:
        eta = np.ascontiguousarray(self.eta, dtype=float)
        coeffs = np.ascontiguousarray(self.coeffs, dtype=float)
        if eta.ndim not in (2, 3) or coeffs.ndim != eta.ndim:
            raise ValueError("eta and coeffs must both be 2-d, or both 3-d when stacked")
        if coeffs.shape != eta.shape[:-1] + (eta.shape[-1] + 1,):
            raise ValueError("coeffs must have one more column than eta (constant term)")
        if not np.all(np.isfinite(eta)) or not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite basis parameters")
        if not self.dt_ref > 0:
            raise ValueError("dt_ref must be positive")
        eta.flags.writeable = False
        coeffs.flags.writeable = False
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.coeffs.shape[-2]

    @property
    def n_features(self) -> int:
        return self.coeffs.shape[-1]

    def features(self, t: float | np.ndarray) -> np.ndarray:
        """Evaluate phi at time(s) t; shape t.shape + coeffs.shape."""
        k = np.asarray(t, dtype=float) / self.dt_ref
        out = np.empty(k.shape + self.coeffs.shape)
        out[..., -1] = 1.0
        if self.eta.shape[-1]:
            np.sin(k[(...,) + (None,) * self.eta.ndim] * self.eta, out=out[..., :-1])
        return out

    def injection_variation(self, t: float | np.ndarray) -> np.ndarray:
        """phi_i(t) . a_i for each bus; shape t.shape + coeffs.shape[:-1]."""
        return (self.features(t) * self.coeffs).sum(axis=-1)


def make_sinusoid_basis(n: int, rng: int | np.random.Generator) -> BasisSignal:
    """Two random sinusoid features plus the constant: eta ~ U[0.005 pi, 0.02 pi]
    per step index, true coefficients ~ U[0.1, 0.2]."""
    gen = np.random.default_rng(rng)
    eta = gen.uniform(0.005 * np.pi, 0.02 * np.pi, (n, 2))
    coeffs = gen.uniform(0.1, 0.2, (n, 3))
    return BasisSignal(eta, coeffs)


def make_constant_basis(n: int, coeffs: np.ndarray | None = None) -> BasisSignal:
    """Constant-1 feature only; zero coefficients unless given."""
    c = np.zeros((n, 1)) if coeffs is None else np.asarray(coeffs, dtype=float).reshape(n, 1)
    return BasisSignal(np.zeros((n, 0)), c)


@dataclass(frozen=True, eq=False)
class Disturbance:
    """Additive step injections plus optional per-step uniform noise.

    Each step is (bus index, magnitude p.u., onset s) and persists to the end
    of the horizon.  Onsets are snapped to the nearest integration step;
    activation is by step index, so refining dt does not shift which interval
    a step lands on.  Noise is redrawn each integration step from
    U[-noise_eps, noise_eps] per bus and held for the step.
    """

    steps: tuple[tuple[int, float, float], ...] = ()
    noise_eps: float = 0.0
    seed: int = 0
    mag_cap: float = 1.0

    def __post_init__(self) -> None:
        steps = tuple((int(b), float(m), float(o)) for b, m, o in self.steps)
        object.__setattr__(self, "steps", steps)
        for bus, mag, onset in steps:
            if abs(mag) > self.mag_cap:
                raise ValueError(
                    f"step magnitude {mag} at bus {bus} exceeds cap {self.mag_cap}"
                )
            if onset < 0:
                raise ValueError("step onset must be nonnegative")
        if self.noise_eps < 0:
            raise ValueError("noise_eps must be nonnegative")

    def injection(self, n: int, t: float, dt: float) -> np.ndarray:
        """Active step injections for the integration step starting at t."""
        p = np.zeros(n)
        k = round(t / dt)
        for bus, mag, onset in self.steps:
            if not 0 <= bus < n:
                raise ValueError(f"step bus index {bus} out of range")
            if k >= round(onset / dt):
                p[bus] += mag
        return p

    def onset_indices(self, dt: float, n_steps: int) -> list[int]:
        """Interior record indices where a step switches on."""
        ks = {round(o / dt) for _, _, o in self.steps}
        return sorted(k for k in ks if 0 < k <= n_steps)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One disturbance realization: step/noise injections, net-load basis,
    and an optional initial state (defaults to the undisturbed equilibrium)."""

    dist: Disturbance
    basis: BasisSignal
    x0: SystemState | None = None


def equilibrium_state(
    net: Network, controller: Controller, delta_star: np.ndarray | None = None
) -> SystemState:
    """Default initial condition: equilibrium angles, zero deviation, zero estimates."""
    if delta_star is None:
        delta_star = solve_equilibrium(net)
    return SystemState(
        np.asarray(delta_star, dtype=float),
        np.zeros(net.n),
        np.zeros((net.n, controller.n_features)),
    )


def _step_table(
    scenarios: Sequence[Scenario], n: int, dt: float, n_steps: int
) -> dict[int, np.ndarray]:
    """Step injections of a battery, (B, n), at k = 0 and at each record
    index where a step of any scenario switches on; held in between."""
    onsets = {k for s in scenarios for k in s.dist.onset_indices(dt, n_steps)}
    return {
        k: np.stack([s.dist.injection(n, k * dt, dt) for s in scenarios])
        for k in sorted({0} | onsets)
    }


NOISE_BLOCK = 64  # steps of injection noise drawn per generator call


class ScenarioStack:
    """A scenario battery as stacked arrays, one row per scenario in order.

    `basis` stacks the scenarios' bases, (B, n, l); `injections()` streams
    each step's step-plus-noise injection, (B, n), with the noise drawn as a
    lone rollout of each scenario draws it; `delta0`, `omega0` (B, n) and
    `a0` (B, n, l_ctrl) are the initial states; `steps` is the battery's
    `_step_table`.  Nothing here is horizon-long.
    """

    def __init__(
        self,
        net: Network,
        scenarios: Sequence[Scenario],
        dt: float,
        n_steps: int,
        ctrl_features: int,
        delta_star: np.ndarray | None = None,
    ):
        B = len(scenarios)
        if B == 0:
            raise ValueError("empty scenario batch")
        first = scenarios[0].basis
        for s in scenarios:
            if s.basis.n != net.n:
                raise ValueError("scenario basis does not match the network")
            if s.basis.n_features != first.n_features or s.basis.dt_ref != first.dt_ref:
                raise ValueError("scenarios in a batch must share the basis layout")
        n = net.n
        self.B, self.n, self.dt, self.n_steps = B, n, dt, n_steps
        self.basis = BasisSignal(
            np.stack([s.basis.eta for s in scenarios]),
            np.stack([s.basis.coeffs for s in scenarios]),
            first.dt_ref,
        )
        self.steps = _step_table(scenarios, n, dt, n_steps)
        self._noisy = [
            (b, s.dist.seed, s.dist.noise_eps)
            for b, s in enumerate(scenarios)
            if s.dist.noise_eps > 0
        ]
        if delta_star is None and any(s.x0 is None for s in scenarios):
            delta_star = solve_equilibrium(net)
        self.delta0 = np.stack([delta_star if s.x0 is None else s.x0.delta for s in scenarios])
        self.omega0 = np.stack([np.zeros(n) if s.x0 is None else s.x0.omega for s in scenarios])
        self.a0 = np.zeros((B, n, ctrl_features))
        for b, s in enumerate(scenarios):
            if s.x0 is not None and s.x0.a_hat.size:
                if s.x0.a_hat.shape != (n, ctrl_features):
                    raise ValueError("initial estimates do not fit the controller")
                self.a0[b] = s.x0.a_hat

    def injections(self) -> Iterator[np.ndarray]:
        """Step plus noise injection of steps 0, 1, ..., each (B, n) and held
        across its step; every call restarts the noise streams from the seeds."""
        gens = [(b, np.random.default_rng(seed), eps) for b, seed, eps in self._noisy]
        steps, k = self.steps[0], 0
        while True:
            block = np.zeros((NOISE_BLOCK, self.B, self.n)) if gens else None
            for b, gen, eps in gens:
                # one block draw is the same stream as NOISE_BLOCK per-step draws
                block[:, b] = gen.uniform(-eps, eps, (NOISE_BLOCK, self.n))
            for j in range(NOISE_BLOCK):
                steps = self.steps.get(k, steps)
                yield steps if block is None else steps + block[j]
                k += 1


def _forcing(net: Network, controller: Controller, basis: BasisSignal, t: float, p_extra):
    """Net injection and the controller's feature view at time t.

    `basis` is one scenario's signal, or a battery's stacked signal.
    """
    phi = basis.features(t)
    p = net.p_star + (phi * basis.coeffs).sum(axis=-1) + p_extra
    return p, controller.select_features(phi)


def _derivs(net, controller, delta, omega, a_hat, p, view):
    """Closed-loop vector field, batched over leading axes; d_a is None for
    controllers without adaptive estimates."""
    u = controller.control(omega, view, a_hat if controller.n_features else None)
    d_delta = coi_project(omega)
    d_omega = (p - net.D * omega - u - grad_S(net, delta)) / net.M
    d_a = controller.adaptation(omega, view) if controller.n_features else None
    return d_delta, d_omega, d_a, u


def _stage(a, h, d_a):
    return a if d_a is None else a + h * d_a


def _advance(net, controller, basis, d, w, a, t, dt, p_extra, method, k1):
    """One integration step from t; p_extra is held constant across sub-stages."""
    if method == "euler":
        nd, nw, na = d + dt * k1[0], w + dt * k1[1], _stage(a, dt, k1[2])
    elif method == "rk4":
        h = dt / 2
        mid = _forcing(net, controller, basis, t + h, p_extra)  # k2 and k3 share it
        k2 = _derivs(net, controller, d + h * k1[0], w + h * k1[1], _stage(a, h, k1[2]), *mid)
        k3 = _derivs(net, controller, d + h * k2[0], w + h * k2[1], _stage(a, h, k2[2]), *mid)
        k4 = _derivs(
            net, controller, d + dt * k3[0], w + dt * k3[1], _stage(a, dt, k3[2]),
            *_forcing(net, controller, basis, t + dt, p_extra),
        )
        sixth = dt / 6
        nd = d + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        nw = w + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        na = a if k1[2] is None else a + sixth * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    else:
        raise ValueError(f"unknown integration method {method!r}")
    return coi_project(nd), nw, na


def _check_finite(d, w, a, k: int, t: float) -> None:
    """Raise IntegrationError naming step k (and, in a batch, the first bad row)."""
    if np.isfinite(d).all() and np.isfinite(w).all() and np.isfinite(a).all():
        return
    ok = np.isfinite(d).all(-1) & np.isfinite(w).all(-1) & np.isfinite(a).all((-2, -1))
    row = int(np.argmin(ok))
    where = f" in scenario {row}" if ok.size > 1 else ""
    raise IntegrationError(
        f"non-finite state{where} at step {k} (t={t:.6g})", row=row, step=k, t=t
    )


def step(
    net: Network,
    state: SystemState,
    controller: Controller,
    basis: BasisSignal,
    dist: Disturbance | None = None,
    t: float = 0.0,
    dt: float = 0.01,
    *,
    method: str = "rk4",
    rng: np.random.Generator | None = None,
) -> SystemState:
    """Advance one integration step from time t.

    Noise requires an explicit generator (`rng`); without one only the step
    injections of `dist` apply.  Raises IntegrationError if the new state is
    not finite.
    """
    p_extra: np.ndarray | float = 0.0
    if dist is not None:
        p_extra = dist.injection(net.n, t, dt)
        if dist.noise_eps > 0 and rng is not None:
            p_extra = p_extra + rng.uniform(-dist.noise_eps, dist.noise_eps, net.n)
    d, w, a = state.delta, state.omega, state.a_hat
    k1 = _derivs(net, controller, d, w, a, *_forcing(net, controller, basis, t, p_extra))
    d, w, a = _advance(net, controller, basis, d, w, a, t, dt, p_extra, method, k1)
    _check_finite(d, w, a, round(t / dt) + 1, t + dt)
    return SystemState(d, w, a)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed record of a closed-loop run.

    Arrays all have K+1 rows for a K-step integration; `u` and `p` hold the
    control and realized injection anchoring the step that starts at each
    record time (the final row's values are those quantities evaluated at the
    horizon).  `meta` carries the scenario description for the JSON sidecar.
    Histories a batched run was not asked to record are None.
    """

    t: np.ndarray
    delta: np.ndarray | None
    omega: np.ndarray
    u: np.ndarray | None
    p: np.ndarray | None
    a_hat: np.ndarray | None
    dt: float
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.omega.shape[1]

    @property
    def n_records(self) -> int:
        return self.t.shape[0]

    def tail(self, t0: float) -> "Trajectory":
        """Drop records before t0 and restart the clock there."""
        k0 = int(np.searchsorted(self.t, t0 - 1e-9))
        if k0 >= self.n_records:
            raise ValueError(f"tail start {t0:g} is past the horizon {self.t[-1]:g}")
        cut = [
            None if x is None else x[k0:]
            for x in (self.delta, self.omega, self.u, self.p, self.a_hat)
        ]
        return Trajectory(self.t[k0:] - self.t[k0], *cut, self.dt, self.meta)

    def write_csv(self, path: str | Path) -> None:
        """Header: t, then delta_<bus>, omega_<bus>, u_<bus>, p_<bus> blocks."""
        ids = self.meta.get("bus_ids", list(range(1, self.n + 1)))
        header = ["t"]
        for block in ("delta", "omega", "u", "p"):
            header += [f"{block}_{b}" for b in ids]
        table = np.column_stack([self.t, self.delta, self.omega, self.u, self.p])
        lines = [",".join(header)]
        for row in table:
            lines.append(",".join(repr(float(v)) for v in row))
        Path(path).write_text("\n".join(lines) + "\n")

    def write_meta(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.meta, indent=1, sort_keys=True) + "\n")


RECORDS = ("delta", "omega", "u", "p", "a_hat")


def _n_steps(horizon: float, dt: float) -> int:
    n_steps = round(horizon / dt)
    if abs(n_steps * dt - horizon) > 1e-9 * max(1.0, abs(horizon)) or n_steps < 1:
        raise ValueError(f"horizon {horizon} is not an integer multiple of dt {dt}")
    return n_steps


def _integrate(
    net: Network, controller: Controller, stack: ScenarioStack, method: str, record,
    observe=None,
) -> dict[str, np.ndarray]:
    """Integrate a stacked battery for `stack.n_steps` steps of `stack.dt`.

    Returns time-major histories, (K+1, B, n) and (K+1, B, n, l) for a_hat,
    for the names in `record`; time-major keeps each step's batch contiguous
    for the adjoint sweep.  `observe`, when given, is called at every record
    as observe(k, delta, omega, a_hat) with the (B, ...) state, so a caller
    can reduce the run as it goes instead of recording it.  Raises
    IntegrationError naming scenario and step.
    """
    n_steps, dt = stack.n_steps, stack.dt
    B, n, l = stack.B, stack.n, controller.n_features
    hist = {
        name: np.empty((n_steps + 1, B, n) + ((l,) if name == "a_hat" else ()))
        for name in record
    }
    d, w, a = stack.delta0, stack.omega0, stack.a0
    # overflow on the way to a non-finite state is the divergence itself;
    # _check_finite reports it once, as IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        for k, p_extra in zip(range(n_steps + 1), stack.injections()):
            t = k * dt
            p, view = _forcing(net, controller, stack.basis, t, p_extra)
            k1 = _derivs(net, controller, d, w, a, p, view)
            now = {"delta": d, "omega": w, "u": k1[3], "p": p, "a_hat": a}
            for name, arr in hist.items():
                arr[k] = now[name]
            if observe is not None:
                observe(k, d, w, a)
            if k == n_steps:
                break
            d, w, a = _advance(net, controller, stack.basis, d, w, a, t, dt, p_extra, method, k1)
            _check_finite(d, w, a, k + 1, t + dt)
    return hist


def rollout_batch(
    net: Network,
    controller: Controller,
    scenarios: Sequence[Scenario],
    *,
    horizon: float,
    dt: float = 0.01,
    method: str = "rk4",
    delta_star: np.ndarray | None = None,
    record: Sequence[str] = RECORDS,
) -> tuple[Trajectory, ...]:
    """Integrate a scenario battery as one batch of state shape (B, n).

    Returns one trajectory per scenario holding only the histories named in
    `record` (omega always); the others are None.  Scenarios without `x0`
    start from `delta_star`, solved for once when not given.  A row equals the
    lone `rollout` of its scenario up to the last bits: the network product's
    rounding depends on the batch size, so results are fixed by the battery,
    never by how it is split.  IntegrationError names the scenario and step.
    """
    if "omega" not in record or not set(record) <= set(RECORDS):
        raise ValueError(f"record must name omega and only histories among {RECORDS}")
    n_steps = _n_steps(horizon, dt)
    stack = ScenarioStack(net, scenarios, dt, n_steps, controller.n_features, delta_star)
    hist = _integrate(net, controller, stack, method, record)
    t_rec = np.arange(n_steps + 1) * dt
    return tuple(
        Trajectory(t_rec, *(hist[r][:, b] if r in hist else None for r in RECORDS), dt)
        for b in range(stack.B)
    )


def rollout(
    net: Network,
    controller: Controller,
    basis: BasisSignal,
    dist: Disturbance | None = None,
    *,
    horizon: float,
    dt: float = 0.01,
    x0: SystemState | None = None,
    method: str = "rk4",
    delta_star: np.ndarray | None = None,
) -> Trajectory:
    """Integrate one scenario for horizon/dt steps and record every state.

    The batch-of-one case of `rollout_batch`.  Deterministic given the
    disturbance seed.  The initial condition defaults to the no-disturbance
    equilibrium (`delta_star`, solved for when not given) with zero estimates.
    """
    scen = Scenario(dist if dist is not None else Disturbance(), basis, x0)
    traj = rollout_batch(
        net, controller, [scen],
        horizon=horizon, dt=dt, method=method, delta_star=delta_star,
    )[0]
    meta = {
        "bus_ids": list(net.bus_ids),
        "dt": dt,
        "horizon": float(horizon),
        "method": method,
        "seed": dist.seed if dist is not None else None,
        "noise_eps": dist.noise_eps if dist is not None else 0.0,
        "steps": [list(s) for s in dist.steps] if dist is not None else [],
        "basis": {
            "eta": basis.eta.tolist(),
            "coeffs": basis.coeffs.tolist(),
            "dt_ref": basis.dt_ref,
        },
    }
    return replace(traj, meta=meta)
