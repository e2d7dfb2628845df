"""Swing dynamics in center-of-inertia coordinates.

The integrated system couples per-bus angles and frequency deviations with
the adaptive estimates of the active controller:

    d(delta_i)/dt = omega_i - mean(omega)
    M_i d(omega_i)/dt = p_i(t) - D_i omega_i - u_i - sum_j B_ij sin(delta_ij)
    d(ahat_i)/dt = omega_i * A_i phi_i(t)          (adaptive controllers)

with net injection p_i(t) = p_star_i + phi_i(t).a_i plus step disturbances
and optional per-step uniform noise.  The default integrator is classical
RK4, which needs the smooth basis at every step and half step; explicit
Euler is available behind a flag and is the forward pass the training module
differentiates through.  Step injections and noise are held constant across
one integration step (zero-order hold anchored at the step start), so
trajectories are piecewise-smooth with breakpoints exactly on the recording
grid.

Angles are re-projected to the COI gauge (zero mean) after every step.

There is one integrator, `_integrate`: it advances a `ScenarioStack`,
evaluating injections and the controller for every scenario in one call per
stage, and returns time-major histories of what it is asked to record, or
hands each record's state and control to an observer.  A run's state is one
packed array whose rows are delta, omega and the estimates ahat_1 ... ahat_L,
each a contiguous (B, n) slab: shape (2 + L, B, n), L the controller's
feature count.  Each stage input, the RK4 combination, the COI re-projection
of row 0 and the finite check are one operation on that array, and every
stage writes its derivatives into its own buffer of the same shape.  The
controller hooks are feature-first to match: phi and ahat are (l, B, n).  A
stack of several controllers adds a controller axis after the rows,
(2 + L, C, B, n): the network terms, the stage sums, the COI projection, the
finite check and the forcing run once per stage for all of them, and only
each controller's `control` and `adaptation` run per slice, each on its own
feature view of the shared phi; estimates are padded to the largest feature
count with zero rates in the unused slots.  A controller's rows are bit for
bit those of its own (B, n) run.  Public layouts stay bus-major and are
converted at the stack boundary: `SystemState.a_hat` (n, l),
`Trajectory.a_hat` (K+1, n, l) and `BasisSignal.features` (..., n, l).

A stack is the one description of a run and the one path from scenarios to
stacked arrays: it holds the network, the controller(s), the method and the
step count derived from the horizon, a stacked `BasisSignal`, one stream of
per-step injections and one blocked forcing stream.  The forcing stream
builds phi alone, feature-first, on one grid of `FORCING_ROWS` stage rows per
block: the first row by `np.sin`, the rest in one multiply by a turn table
stored with the stack, so a block rebuilt later (the adjoint walks them in
reverse) is bit-identical.  The integrator forms p_star + phi.a per block;
RK4's last stage and the next step's first share a row.
`rollout_batch` wraps the integrator for scenario batteries, `rollout` is
the batch-of-one case, `step` advances a lone state through the same stage
code with its own per-stage features, training calls `_integrate` directly
for its Euler forward pass, and certification and evaluation observe
instead of recording.
"""

from __future__ import annotations

import itertools
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
    "make_constant_basis",
    "make_sinusoid_basis",
    "rollout",
    "rollout_batch",
    "step",
]

DT_REF = 0.01  # simulated seconds per step of the basis feature index
# stage rows per forcing block: Euler steps, or RK4 half steps.  A stack's
# block buffer (phi and the complex rotation rows) and turn table take
# 1.37 MB at B = 25 on ne39 with a two-sinusoid basis, 0.55 MB at B = 10
FORCING_ROWS = 16
SUBSTAGES = {"euler": 1, "rk4": 2}  # stage rows per step of each method


class IntegrationError(RuntimeError):
    """State became non-finite while integrating.

    The integrator sets `row` (the scenario of the first non-finite batch
    row), `controller` (its controller's index in a stack of several, else
    None), `step` and `t`, so a caller can name the offending scenario and
    controller in its own terms.  Rows are searched controller by controller.
    """

    def __init__(self, message: str, *, row=None, controller=None, step=None, t=None):
        super().__init__(message)
        self.row, self.controller, self.step, self.t = row, controller, step, t


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
    """Per-bus feature vectors phi_i(k) = (sin(eta_i^1 k), ..., 1) over k = t/DT_REF.

    `eta` holds the sinusoid step-frequencies, one row per bus (zero columns
    for a constant-only basis); `coeffs` the true coefficients a_i, with the
    trailing column always belonging to the constant-1 feature.  The feature
    index k advances by 1 per `DT_REF` of simulated time regardless of the
    integration step, and is evaluated at fractional k for sub-stage times.
    A battery's bases stack into one signal, `eta` (B, n, m), `coeffs` (B, n, m+1).
    """

    eta: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        eta = np.ascontiguousarray(self.eta, dtype=float)
        coeffs = np.ascontiguousarray(self.coeffs, dtype=float)
        if eta.ndim not in (2, 3) or coeffs.ndim != eta.ndim:
            raise ValueError("eta and coeffs must both be 2-d, or both 3-d when stacked")
        if coeffs.shape != eta.shape[:-1] + (eta.shape[-1] + 1,):
            raise ValueError("coeffs must have one more column than eta (constant term)")
        if not np.all(np.isfinite(eta)) or not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite basis parameters")
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
        k = np.asarray(t, dtype=float) / DT_REF
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


def _substages(method: str) -> int:
    if method not in SUBSTAGES:
        raise ValueError(f"unknown integration method {method!r}")
    return SUBSTAGES[method]


class _Stage:
    """Views, taken once per run, of one stage's packed input state x, its
    derivative buffer k and the control u, ([C,] B, n): the network rows, and
    per controller its slice of omega, of its l estimate rows, of u and of
    the estimate rates in k.  A tuple of C controllers gives each its slice
    c; estimate rows a controller has no feature for keep k's zeros."""

    def __init__(self, controller, x, k, u):
        self.delta, self.omega, self.d_delta, self.d_omega, self.u = x[0], x[1], k[0], k[1], u
        members = enumerate(controller) if isinstance(controller, tuple) else ((None, controller),)
        self.members = []
        for c, m in members:
            at = () if c is None else (c,)
            rows = (slice(2, 2 + m.n_features), *at)
            self.members.append((m, m.n_features, x[(1, *at)], x[rows], u[at], k[rows]))


class ScenarioStack:
    """One run: a scenario battery as stacked arrays, one row per scenario in
    order, with the network and the controller, or sequence of controllers,
    that integrate it.

    It serves one integration `method`, of `sub` stage rows per step, over
    `n_steps` steps of `dt`, derived from `horizon` (a multiple of dt).
    `basis` stacks the scenarios' bases, (B, n, m + 1); `forcing()` builds
    phi a block of stage rows at a time; `injections()` streams each
    step's step-plus-noise injection, (B, n), each noisy row drawing its
    step's noise from its own seeded stream, as a lone rollout of that
    scenario draws it; `x0` is the packed initial state, (2 + L, B, n) with
    rows delta, omega and the L estimates of the controller's features;
    `steps` is the battery's `_step_table`.  Nothing here is horizon-long.
    Given a sequence of C controllers, `controller` is their tuple, `C` is
    set (else None), the state gains a controller axis after its rows,
    (2 + L, C, B, n), and L is the largest feature count, a controller's
    unused estimate rows zero.
    """

    def __init__(
        self,
        net: Network,
        controller: Controller | Sequence[Controller],
        scenarios: Sequence[Scenario],
        horizon: float,
        dt: float,
        method: str,
        delta_star: np.ndarray | None = None,
    ):
        members = (controller,) if isinstance(controller, Controller) else tuple(controller)
        if not members:
            raise ValueError("no controller to integrate")
        self.C = None if isinstance(controller, Controller) else len(members)
        self.net, self.controller = net, members[0] if self.C is None else members
        self.method, self.sub = method, _substages(method)
        n_steps = round(horizon / dt)
        if abs(n_steps * dt - horizon) > 1e-9 * max(1.0, abs(horizon)) or n_steps < 1:
            raise ValueError(f"horizon {horizon} is not an integer multiple of dt {dt}")
        B = len(scenarios)
        if B == 0:
            raise ValueError("empty scenario batch")
        first = scenarios[0].basis
        for s in scenarios:
            if s.basis.n != net.n:
                raise ValueError("scenario basis does not match the network")
            if s.basis.n_features != first.n_features:
                raise ValueError("scenarios in a batch must share the basis layout")
        n, l = net.n, max(m.n_features for m in members)
        self.B, self.n, self.dt, self.n_steps = B, n, dt, n_steps
        self.basis = BasisSignal(
            np.stack([s.basis.eta for s in scenarios]),
            np.stack([s.basis.coeffs for s in scenarios]),
        )
        self.steps = _step_table(scenarios, n, dt, n_steps)
        self._noisy = [
            (b, s.dist.seed, s.dist.noise_eps)
            for b, s in enumerate(scenarios)
            if s.dist.noise_eps > 0
        ]
        if delta_star is None and any(s.x0 is None for s in scenarios):
            delta_star = solve_equilibrium(net)
        x0 = np.zeros((2 + l, len(members), B, n))
        for b, s in enumerate(scenarios):
            if s.x0 is None:
                x0[0, :, b] = delta_star
                continue
            x0[0, :, b], x0[1, :, b] = s.x0.delta, s.x0.omega
            if s.x0.a_hat.size:
                for c, m in enumerate(members):
                    if s.x0.a_hat.shape != (n, m.n_features):
                        raise ValueError("initial estimates do not fit the controller")
                    x0[2 : 2 + m.n_features, c, b] = s.x0.a_hat.T
        self.x0 = x0 if self.C is not None else x0[:, 0]
        # feature-first: one contiguous (B, n) slab per feature and stage row
        eta = np.ascontiguousarray(np.moveaxis(self.basis.eta, -1, 0))
        self._eta, self._coeffs = eta, np.ascontiguousarray(np.moveaxis(self.basis.coeffs, -1, 0))
        angle = (np.arange(FORCING_ROWS) * (dt / self.sub / DT_REF))[:, None, None, None] * eta
        self._turns = np.empty(angle.shape, dtype=complex)
        np.cos(angle, out=self._turns.real)
        np.sin(angle, out=self._turns.imag)
        self._phi = np.empty((FORCING_ROWS,) + self._coeffs.shape)
        self._phi[:, -1] = 1.0
        self._z = np.empty((FORCING_ROWS,) + eta.shape, dtype=complex)

    def injections(self) -> Iterator[np.ndarray]:
        """Step plus noise injection of steps 0, 1, ..., n_steps, each (B, n)
        and held across its step; every call restarts the noise streams from
        the seeds.  Noise is drawn `FORCING_ROWS` steps at a time, the same
        stream as one draw per step."""
        gens = [(b, np.random.default_rng(seed), eps) for b, seed, eps in self._noisy]
        steps = self.steps[0]
        for k0 in range(0, self.n_steps + 1, FORCING_ROWS):
            rows = min(FORCING_ROWS, self.n_steps + 1 - k0)
            noise = [(b, gen.uniform(-eps, eps, (rows, self.n))) for b, gen, eps in gens]
            for j in range(rows):
                steps = self.steps.get(k0 + j, steps)
                p = steps.copy() if gens else steps
                for b, draws in noise:
                    p[b] += draws[j]
                yield p

    def forcing(self, block: int) -> np.ndarray:
        """phi at the stage rows of forcing block `block`, feature-first:
        (rows, m + 1, B, n).

        Stage row r sits at time r * dt / sub; the block holds rows
        block * FORCING_ROWS onwards, up to the horizon's row n_steps * sub.
        The first row is `basis.features` at the block's first step, computed
        the same way; row j is that row times the stored turn exp(i j g eta)
        (g = dt / sub in basis index units), all rows in one multiply, so rows
        stay within a few ulp of `basis.features` and a block is bit-identical
        each time it is built.
        The result is a view of the stack's one block buffer, valid until the
        next call: a fresh block of this size is page-faulted in on every call.
        """
        r0 = block * FORCING_ROWS
        rows = min(FORCING_ROWS, self.n_steps * self.sub + 1 - r0)
        phi, z = self._phi[:rows], self._z[:rows]
        if self._eta.shape[0]:
            angle = (r0 // self.sub * self.dt / DT_REF) * self._eta
            z[0].real, z[0].imag = np.cos(angle), np.sin(angle)
            np.multiply(self._turns[1:rows], z[0], out=z[1:])
            phi[:, :-1] = z.imag
        return phi


def _forcing(net: Network, basis: BasisSignal, t: float):
    """Smooth injection p_star + phi.a and phi, feature-first (m + 1, n), at
    time t, for one scenario's basis."""
    phi = basis.features(t)
    return net.p_star + (phi * basis.coeffs).sum(axis=-1), np.ascontiguousarray(phi.T)


def _forcing_rows(stack: ScenarioStack):
    """`_forcing` of a stack's battery, with its network, at stage rows
    0, 1, ..., n_steps * sub, built one `ScenarioStack.forcing` block at a
    time: p (B, n) and phi (m + 1, B, n).

    The injection p_star + phi.a is summed feature by feature, as
    (phi * coeffs).sum(-1) sums it, into a fresh array per block.  Feature
    rows are views of the stack's block buffer, except a block's last row:
    an RK4 step still uses it after the next block is built, so it is a copy.
    """
    coeffs, p_star = stack._coeffs, stack.net.p_star
    for block in itertools.count():
        phi = stack.forcing(block)
        p = phi[:, 0] * coeffs[0]
        for j in range(1, coeffs.shape[0]):
            p += phi[:, j] * coeffs[j]
        p += p_star
        last = p.shape[0] - 1
        for j in range(last):
            yield p[j], phi[j]
        yield p[last], phi[last].copy()


def _derivs(net, stage: _Stage, p, phi) -> None:
    """Closed-loop vector field at a stage's packed input state, batched over
    the trailing axes, into its derivative buffer and control."""
    for m, l, omega, a_hat, u, d_a in stage.members:
        if l:
            view = m.select_features(phi)
            m.control(omega, view, a_hat, out=u)
            m.adaptation(omega, view, out=d_a)
        else:
            m.control(omega, out=u)
    omega = stage.omega
    coi_project(omega, out=stage.d_delta)
    np.divide(p - net.D * omega - stage.u - grad_S(net, stage.delta), net.M, out=stage.d_omega)


def _stages(controller, x, sub: int) -> tuple[np.ndarray, list[_Stage]]:
    """Zeroed derivative buffers k for the packed state x, one per Euler step
    or four plus the stage input k[4] per RK4 step, and each stage's views:
    the first stage reads x, the later ones k[4]; all share one control."""
    n = 1 if sub == 1 else 4  # stages per step; RK4 also keeps its stage input in k[4]
    k, u = np.zeros((n + (n > 1),) + x.shape), np.empty(x.shape[1:])
    return k, [_Stage(controller, x if s == 0 else k[4], k[s], u) for s in range(n)]


def _advance(net, stages, x, dt, p_extra, k, mid=None, end=None) -> None:
    """One Euler step of the packed state x in place, its first stage's
    derivatives in k[0]; or one RK4 step given the `_forcing` rows at the
    half step (`mid`) and the step end (`end`), with the `_stages` buffers
    and views.  p_extra is held across stages."""
    if mid is None:
        x += np.multiply(dt, k[0], out=k[0])
    else:
        h, y = dt / 2, k[4]
        p_mid = mid[0] + p_extra  # k2 and k3 share it
        for s, (step_h, p, phi) in enumerate(
            ((h, p_mid, mid[1]), (h, p_mid, mid[1]), (dt, end[0] + p_extra, end[1]))
        ):
            np.add(x, np.multiply(step_h, k[s], out=y), out=y)
            _derivs(net, stages[s + 1], p, phi)
        # x + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order
        np.multiply(2, k[1], out=k[1])
        np.multiply(2, k[2], out=k[2])
        acc = np.add(k[0], k[1], out=k[0])
        acc += k[2]
        acc += k[3]
        x += np.multiply(dt / 6, acc, out=acc)
    coi_project(x[0], out=x[0])


def _check_finite(x, k: int, t: float) -> None:
    """Raise IntegrationError naming step k (and, in a batch, the first bad
    row, searched controller by controller) if the packed state x is not
    finite."""
    if np.isfinite(x).all():
        return
    ok = np.isfinite(x).all(axis=(0, -1))
    first = int(np.argmin(ok))
    ctrl, row = divmod(first, ok.shape[-1]) if ok.ndim == 2 else (None, first)
    where = f" in scenario {row}" if ok.size > 1 else ""
    if ctrl is not None:
        where += f" of controller {ctrl}"
    raise IntegrationError(
        f"non-finite state{where} at step {k} (t={t:.6g})",
        row=row, controller=ctrl, step=k, t=t,
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
    x = np.concatenate([state.delta[None], state.omega[None], state.a_hat.T])
    sub = _substages(method)
    stage_times = (t, t + dt / 2, t + dt) if sub == 2 else (t,)
    rows = [_forcing(net, basis, s) for s in stage_times]
    bufs, stages = _stages(controller, x, sub)
    # as in _integrate: overflow is the divergence, reported once below
    with np.errstate(over="ignore", invalid="ignore"):
        smooth, phi = rows[0]
        _derivs(net, stages[0], smooth + p_extra, phi)
        _advance(net, stages, x, dt, p_extra, bufs, *rows[1:])
    _check_finite(x, round(t / dt) + 1, t + dt)
    return SystemState(x[0], x[1], x[2:].T)


_CSV_BLOCK = 256  # records formatted per write in Trajectory.write_csv


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
        """Header: t, then delta_<bus>, omega_<bus>, u_<bus>, p_<bus> blocks.

        Streams the rows block by block, at most `_CSV_BLOCK` records at a
        time, so memory is bounded by one block and not by the horizon.
        Raises ValueError naming a missing history before creating the file.
        """
        for name in ("delta", "u", "p"):
            if getattr(self, name) is None:
                raise ValueError(f"trajectory has no {name} history; record it to write a CSV")
        ids = self.meta.get("bus_ids", list(range(1, self.n + 1)))
        header = ["t"]
        for block in ("delta", "omega", "u", "p"):
            header += [f"{block}_{b}" for b in ids]
        columns = (self.t, self.delta, self.omega, self.u, self.p)
        with open(path, "w") as f:
            f.write(",".join(header) + "\n")
            for k in range(0, self.n_records, _CSV_BLOCK):
                block = np.column_stack([c[k:k + _CSV_BLOCK] for c in columns])
                # repr of a tolist() float is repr(float(v)) of the numpy value
                f.writelines(",".join(map(repr, row)) + "\n" for row in block.tolist())

    def write_meta(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.meta, indent=1, sort_keys=True) + "\n")


RECORDS = ("delta", "omega", "u", "p", "a_hat")


def _integrate(stack: ScenarioStack, record, observe=None) -> dict[str, np.ndarray]:
    """Integrate a stack's battery for `stack.n_steps` steps of `stack.dt`,
    with the stack's network, controller(s) and method.

    Returns time-major histories for the names in `record`: (K+1, B, n), and
    (K+1, B, n, l) for a_hat, bus-major as in `Trajectory`; time-major keeps
    each step's batch contiguous for the adjoint sweep.  A stack of C
    controllers runs them all as one batch on a controller axis: histories
    are (K+1, C, B, n) and (K+1, C, B, n, L), and controller c's slice
    equals its own run bit for bit.  `observe`, when given, is called at every record
    as observe(k, x, u) with the packed state x, (2 + L, [C,] B, n), and the
    control anchoring the step that starts there, so a caller can reduce the
    run as it goes instead of recording it; both are buffers, valid during
    the call.  Injections and features come from `_forcing_rows`; an RK4
    step's end row is the next step's first.  Raises IntegrationError naming
    scenario, controller and step.
    """
    net, controller, n_steps, dt = stack.net, stack.controller, stack.n_steps, stack.dt
    rows = _forcing_rows(stack)
    row, mid = next(rows), None
    x = stack.x0.copy()
    bufs, stages = _stages(controller, x, stack.sub)
    u = stages[0].u
    # p is set per step; a_hat is recorded bus-major, the public layout
    now = {"delta": x[0], "omega": x[1], "u": u, "p": x[0], "a_hat": np.moveaxis(x[2:], 0, -1)}
    hist = {name: np.empty((n_steps + 1,) + now[name].shape) for name in record}
    # overflow on the way to a non-finite state is the divergence itself;
    # _check_finite reports it once, as IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        for k, p_extra in enumerate(stack.injections()):
            now["p"] = p = row[0] + p_extra
            _derivs(net, stages[0], p, row[1])
            for name, arr in hist.items():
                arr[k] = now[name]
            if observe is not None:
                observe(k, x, u)
            if k == n_steps:
                break
            if stack.method == "rk4":
                mid = next(rows)
            row = next(rows)
            _advance(net, stages, x, dt, p_extra, bufs, mid, row)
            _check_finite(x, k + 1, k * dt + dt)
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
    never by how it is split.  They do not depend on which other controllers
    share the batch: a `ScenarioStack` of several controllers gives each
    controller these rows bit for bit.  IntegrationError names the scenario
    and step.
    """
    if "omega" not in record or not set(record) <= set(RECORDS):
        raise ValueError(f"record must name omega and only histories among {RECORDS}")
    stack = ScenarioStack(net, controller, scenarios, horizon, dt, method, delta_star)
    hist = _integrate(stack, record)
    t_rec = np.arange(stack.n_steps + 1) * dt
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
            "dt_ref": DT_REF,
        },
    }
    return replace(traj, meta=meta)
