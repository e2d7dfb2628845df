"""Scenario generation, transient loss, trajectory gradients, and training.

The transient loss of one closed-loop trajectory is

    loss = sum_i ( max_k |omega_i(k)| + gamma * c_i * dt * sum_{k<K} u_i(k)^2 )

and training minimizes its batch average by gradient descent on the raw
(unconstrained) controller parameters.  Gradients are exact reverse-mode
derivatives of the discretized rollout.  The forward pass is the explicit
Euler case of the one integrator in `dynamics`, at the reference step (the
cadence the basis signals are defined over); certification and evaluation
use its RK4 case.  The backward pass walks the same recurrence with
hand-written vector-Jacobian products for every term: network coupling via
Hessian-vector products, controller terms via the hooks the controllers
expose.  It keeps only the angle, frequency and control histories, so
memory stays linear in the horizon; it recomputes the features per step and
takes the controller terms that do not feed the recurrence once per block of
`ADJOINT_BLOCK` steps.  The max is handled as a hard max with the subgradient
placed at the earliest maximizing sample; a log-sum-exp softening is
available behind a flag.

Everything is deterministic given the seeds: scenario draws come from
spawned `SeedSequence` children, and the per-epoch shuffle is keyed by
(seed, epoch) so a resumed run replays the exact batch order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .controllers import (
    AdaptiveController,
    Controller,
    ControllerError,
    SaturatedController,
)
from .dynamics import (
    Disturbance,
    IntegrationError,
    Scenario,
    ScenarioStack,
    Trajectory,
    _integrate,
    _n_steps,
    make_sinusoid_basis,
)
from .netmodel import Network, coi_project, hess_S_vecprod, solve_equilibrium

__all__ = [
    "AdamState",
    "CostSpec",
    "GradientCheckReport",
    "Scenario",
    "ScenarioSet",
    "TrainReport",
    "batch_loss",
    "grad_loss",
    "gradient_check",
    "make_cost_spec",
    "make_scenario_set",
    "make_scenarios",
    "restoration_cost",
    "train",
    "transient_loss",
]

SMOOTH_MAX_TEMP = 100.0
EVAL_ONSET = 2.0  # step onset of simulate's, evaluate's and certify's scenarios
# adjoint steps per control_wrt_omega / control_vjp_raw call; the buffered
# (32, 25, 39) bar_u is 0.25 MB
ADJOINT_BLOCK = 32


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Action-cost weight gamma, per-bus quadratic coefficients, loss horizon."""

    gamma: float
    c: np.ndarray
    T: float

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.c, dtype=float)
        if self.gamma < 0 or self.T <= 0 or np.any(c <= 0):
            raise ValueError("CostSpec requires gamma >= 0, c > 0, T > 0")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)


def make_cost_spec(
    net: Network,
    rng: int | np.random.Generator | np.random.SeedSequence,
    *,
    gamma: float = 0.1,
    c_range: tuple[float, float] = (0.025, 0.075),
    T: float = 4.0,
) -> CostSpec:
    """Draw the per-bus action-cost coefficients once for a network."""
    gen = np.random.default_rng(rng)
    return CostSpec(gamma=gamma, c=gen.uniform(*c_range, net.n), T=T)


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Disjoint train/test scenario draws from one master seed."""

    train: tuple[Scenario, ...]
    test: tuple[Scenario, ...]
    seed: int


def make_scenarios(
    net: Network,
    count: int,
    seed: int | np.random.SeedSequence,
    *,
    noise_eps: float = 0.0,
    onset: float = 0.0,
    max_buses: int = 3,
    mag_cap: float = 1.0,
) -> tuple[Scenario, ...]:
    """Random disturbance scenarios: 1..max_buses step buses with magnitudes
    U[-mag_cap, mag_cap] switching on at `onset`, fresh sinusoid basis each."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    out = []
    for child in ss.spawn(count):
        gen = np.random.default_rng(child)
        n_buses = int(gen.integers(1, min(max_buses, net.n) + 1))
        buses = gen.choice(net.n, size=n_buses, replace=False)
        mags = gen.uniform(-mag_cap, mag_cap, n_buses)
        basis = make_sinusoid_basis(net.n, gen)
        dist = Disturbance(
            steps=tuple((int(b), float(m), float(onset)) for b, m in zip(buses, mags)),
            noise_eps=noise_eps,
            seed=int(gen.integers(0, 2**63 - 1)),
            mag_cap=mag_cap,
        )
        out.append(Scenario(dist=dist, basis=basis))
    return tuple(out)


def make_scenario_set(
    net: Network, n_train: int, n_test: int, seed: int, **kwargs
) -> ScenarioSet:
    ss = np.random.SeedSequence(seed)
    train_ss, test_ss = ss.spawn(2)
    return ScenarioSet(
        train=make_scenarios(net, n_train, train_ss, **kwargs),
        test=make_scenarios(net, n_test, test_ss, **kwargs),
        seed=seed,
    )


def transient_loss(traj: Trajectory, cost: CostSpec) -> float:
    """Per-bus worst deviation plus the action integral over [0, T].

    The sup norm is taken over all recorded samples up to T inclusive; the
    integral is a left Riemann sum, so the record at T contributes no action.
    """
    k_end = round(cost.T / traj.dt)
    if k_end < 1 or k_end > traj.n_records - 1:
        raise ValueError(
            f"trajectory covers {traj.t[-1]:g} s but the cost horizon is {cost.T:g} s"
        )
    peak = np.abs(traj.omega[: k_end + 1]).max(axis=0)
    action = (traj.u[:k_end] ** 2).sum(axis=0) * traj.dt
    return float(peak.sum() + cost.gamma * (cost.c * action).sum())


def restoration_cost(
    traj: Trajectory, window: tuple[float, float] = (10.0, 15.0)
) -> float:
    """Mean |omega| over all buses and records with window[0] <= t <= window[1]."""
    w0, w1 = window
    if w1 > traj.t[-1] + 1e-9:
        raise ValueError(
            f"trajectory ends at {traj.t[-1]:g} s, before the window end {w1:g} s"
        )
    mask = (traj.t >= w0 - 1e-9) & (traj.t <= w1 + 1e-9)
    return float(np.abs(traj.omega[mask]).mean())


# --- Euler forward pass and adjoint ------------------------------------------


def _forward(net, controller, scenarios, dt, T, delta_star):
    """Euler rollout of the batch through the dynamics core.

    Returns the scenario stack (the adjoint reads its features again) and the
    time-major histories the adjoint needs: delta and omega (K+1, B, n) and
    the K controls that drive the steps.
    """
    if isinstance(controller, SaturatedController):
        raise ControllerError("training through saturation is not supported")
    n_steps = _n_steps(T, dt)
    stack = ScenarioStack(net, scenarios, dt, n_steps, controller.n_features, delta_star)
    hist = _integrate(net, controller, stack, "euler", ("delta", "omega", "u"))
    return stack, hist["delta"], hist["omega"], hist["u"][:-1]


def _loss_terms(omega_h, u_h, cost: CostSpec, dt, smooth_max: bool):
    """Batch-mean loss plus the loss seeds on the omega and u histories."""
    B = omega_h.shape[1]
    if smooth_max:
        absw = np.abs(omega_h)
        m = absw.max(axis=0)
        z = np.exp(SMOOTH_MAX_TEMP * (absw - m))
        zsum = z.sum(axis=0)
        peak = m + np.log(zsum) / SMOOTH_MAX_TEMP
        seed_w = np.sign(omega_h) * z / zsum / B
    else:
        # the seed is zero off the earliest maximizer: scatter it there instead
        # of building dense (K+1, B, n) masks beside the histories
        kstar = np.abs(omega_h).argmax(axis=0)[None]
        w_star = np.take_along_axis(omega_h, kstar, axis=0)
        peak = np.abs(w_star[0])
        seed_w = np.zeros_like(omega_h)
        np.put_along_axis(seed_w, kstar, np.sign(w_star) / B, axis=0)
    action = (u_h**2).sum(axis=0) * dt
    loss_b = peak.sum(axis=-1) + cost.gamma * (cost.c * action).sum(axis=-1)
    seed_u = 2.0 * cost.gamma * cost.c * u_h * dt / B
    return float(loss_b.mean()), seed_w, seed_u


def _backward(net, controller, stack: ScenarioStack, delta_h, omega_h, seed_w, seed_u):
    """Adjoint sweep of the Euler recurrence; returns the raw-parameter gradient."""
    K, n = stack.n_steps, stack.n
    adaptive = isinstance(controller, AdaptiveController)
    grad = np.zeros(controller.raw_parameters().size)
    # the adaptation VJP feeds the rate block only; accumulate it in place
    grad_rate = grad[controller.rate_block] if adaptive else None
    lam_d = np.zeros((stack.B, n))
    lam_w = seed_w[K].copy()
    lam_a = np.zeros((stack.B, n, controller.n_features))
    bar_u_block = np.empty((min(ADJOINT_BLOCK, K), stack.B, n))
    dt = stack.dt
    for k1 in range(K, 0, -ADJOINT_BLOCK):
        k0 = max(k1 - ADJOINT_BLOCK, 0)
        du_dw = controller.control_wrt_omega(omega_h[k0:k1])
        for k in range(k1 - 1, k0 - 1, -1):
            delta, omega = delta_h[k], omega_h[k]
            # the zero-mean projection is symmetric and idempotent, so both the
            # delta->delta and omega->delta branches pull back through it once
            lam_dp = coi_project(lam_d)
            g_m = lam_w / net.M
            bar_u = np.add(-dt * g_m, seed_u[k], out=bar_u_block[k - k0])
            new_lam_d = lam_dp - dt * hess_S_vecprod(net, delta, g_m)
            new_lam_w = (
                lam_w
                + seed_w[k]
                + dt * lam_dp
                - dt * net.D * g_m
                + bar_u * du_dw[k - k0]
            )
            if adaptive:
                view = controller.select_features(stack.basis.features(k * dt))
                g_a, bar_w = controller.adaptation_vjp(omega, view, dt * lam_a)
                grad_rate += g_a
                new_lam_w += bar_w
                lam_a = lam_a + controller.control_vjp_ahat(view, bar_u)
            lam_d, lam_w = new_lam_d, new_lam_w
            if not np.isfinite(lam_w).all():
                raise IntegrationError(f"non-finite adjoint at step {k}")
        grad += controller.control_vjp_raw(omega_h[k0:k1], bar_u_block[: k1 - k0])
    return grad


def batch_loss(
    net: Network,
    controller: Controller,
    scenarios: Sequence[Scenario],
    cost: CostSpec,
    *,
    dt: float = 0.01,
    smooth_max: bool = False,
    delta_star: np.ndarray | None = None,
) -> float:
    """Batch-mean transient loss of the Euler-discretized closed loop."""
    _, _, omega_h, u_h = _forward(net, controller, scenarios, dt, cost.T, delta_star)
    return _loss_terms(omega_h, u_h, cost, dt, smooth_max)[0]


def grad_loss(
    net: Network,
    controller: Controller,
    scenarios: Scenario | Sequence[Scenario],
    cost: CostSpec,
    *,
    dt: float = 0.01,
    smooth_max: bool = False,
    delta_star: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Loss and its exact gradient with respect to the raw parameter vector.

    Raises IntegrationError naming the step (and, for the forward state, the
    scenario in a batch) if the forward state or the adjoint sweep produces
    non-finite values.
    """
    if isinstance(scenarios, Scenario):
        scenarios = [scenarios]
    # overflow here is a divergence signal, not a bug: it surfaces as
    # IntegrationError and the training loop falls back to good parameters
    with np.errstate(over="ignore", invalid="ignore"):
        stack, delta_h, omega_h, u_h = _forward(
            net, controller, scenarios, dt, cost.T, delta_star
        )
        loss, seed_w, seed_u = _loss_terms(omega_h, u_h, cost, dt, smooth_max)
        grad = _backward(net, controller, stack, delta_h, omega_h, seed_w, seed_u)
    if not np.all(np.isfinite(grad)):
        raise IntegrationError("non-finite gradient in the adjoint sweep")
    return loss, grad


# --- optimizer and training loop --------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators for Adam."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(np.zeros(size), np.zeros(size), 0)

    def update(
        self,
        raw: np.ndarray,
        grad: np.ndarray,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> np.ndarray:
        self.t += 1
        self.m = beta1 * self.m + (1 - beta1) * grad
        self.v = beta2 * self.v + (1 - beta2) * grad**2
        mhat = self.m / (1 - beta1**self.t)
        vhat = self.v / (1 - beta2**self.t)
        return raw - lr * mhat / (np.sqrt(vhat) + eps)

    def to_dict(self) -> dict:
        return {"m": self.m.tolist(), "v": self.v.tolist(), "t": self.t}

    @classmethod
    def from_dict(cls, doc: dict) -> "AdamState":
        return cls(
            np.array(doc["m"], dtype=float), np.array(doc["v"], dtype=float), int(doc["t"])
        )


@dataclass(frozen=True, eq=False)
class TrainReport:
    """Loss curve, final controller, optimizer state, and whether the run aborted."""

    controller: Controller
    losses: tuple[float, ...]
    optimizer: AdamState
    aborted: bool


def train(
    net: Network,
    controller: Controller,
    scenarios: Sequence[Scenario],
    cost: CostSpec,
    *,
    epochs: int,
    batch_size: int = 25,
    lr: float = 1e-3,
    seed: int = 0,
    dt: float = 0.01,
    smooth_max: bool = False,
    optimizer: AdamState | None = None,
    start_epoch: int = 0,
    divergence_factor: float = 1e4,
    anchor_loss: float | None = None,
    callback: Callable[[int, float], None] | None = None,
) -> TrainReport:
    """Adam on the raw parameters over shuffled mini-batches.

    The shuffle for epoch e is keyed by (seed, e), so resuming from a
    checkpoint (same seed, `start_epoch` advanced, optimizer state restored)
    reproduces an uninterrupted run exactly (pass the run's first epoch loss
    as `anchor_loss`).  On divergence (non-finite values, or a later epoch's
    loss above divergence_factor times that anchor) the loop stops and the
    report carries the last finished epoch's parameters and optimizer state
    with `aborted` set.
    """
    if epochs < 0 or batch_size < 1:
        raise ValueError("epochs must be >= 0 and batch_size >= 1")
    if not scenarios:
        raise ValueError("empty scenario set")
    delta_star = solve_equilibrium(net)
    raw = controller.raw_parameters()
    adam = optimizer if optimizer is not None else AdamState.zeros(raw.size)
    losses: list[float] = []
    anchor = anchor_loss
    # Adam rebinds its arrays on update, so holding them is a snapshot
    good_raw, good_adam = raw.copy(), (adam.m, adam.v, adam.t)
    aborted = False
    for epoch in range(start_epoch, start_epoch + epochs):
        order = np.random.default_rng([seed, epoch]).permutation(len(scenarios))
        epoch_losses = []
        try:
            for lo in range(0, len(order), batch_size):
                chunk = [scenarios[i] for i in order[lo : lo + batch_size]]
                ctrl = controller.with_raw_parameters(raw)
                loss, grad = grad_loss(
                    net, ctrl, chunk, cost,
                    dt=dt, smooth_max=smooth_max, delta_star=delta_star,
                )
                raw = adam.update(raw, grad, lr)
                epoch_losses.append(loss)
            avg = float(np.mean(epoch_losses))
            limit = np.inf if anchor is None else divergence_factor * anchor
            if not np.isfinite(avg) or avg > limit:
                aborted = True
        except IntegrationError:
            aborted = True
        if aborted:
            raw = good_raw
            adam.m, adam.v, adam.t = good_adam
            break
        losses.append(avg)
        if anchor is None:
            anchor = avg
        good_raw, good_adam = raw.copy(), (adam.m, adam.v, adam.t)
        if callback is not None:
            callback(epoch, avg)
    return TrainReport(
        controller=controller.with_raw_parameters(raw),
        losses=tuple(losses),
        optimizer=adam,
        aborted=aborted,
    )


# --- gradient verification ---------------------------------------------------


@dataclass(frozen=True)
class GradientCheckReport:
    """Relative errors of reverse-mode vs central-difference derivatives."""

    entries: tuple[tuple[int, int, float], ...]  # (scenario index, coordinate, rel err)
    max_rel_err: float
    n_skipped: int

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_err <= tol


def _near_kink_or_tie(
    omega_h: np.ndarray, controller: Controller, tie_tol: float, kink_tol: float
) -> bool:
    absw = np.abs(omega_h)
    top = np.sort(absw, axis=0)[-2:]
    if np.any(top[1] - top[0] < tie_tol):
        return True
    bp = getattr(controller, "breakpoints", None)
    if bp is None and isinstance(controller, AdaptiveController):
        bp = getattr(controller.base, "breakpoints", None)
    # record 0 is excluded: the initial state does not depend on the
    # parameters, so a kink there (omega = 0 on the default grid) is never
    # on a derivative path
    if bp is not None and np.abs(omega_h[1:][..., None] - bp).min() < kink_tol:
        return True
    return False


def gradient_check(
    net: Network,
    controller: Controller,
    scenarios: Sequence[Scenario],
    cost: CostSpec,
    *,
    pairs: int = 50,
    seed: int = 0,
    fd_step: float = 1e-4,
    dt: float = 0.01,
    smooth_max: bool = False,
    tie_tol: float = 1e-6,
    kink_tol: float = 1e-6,
    min_grad: float = 1e-6,
) -> GradientCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    Samples (scenario, coordinate) pairs.  Scenarios whose trajectories pass
    within `kink_tol` of a breakpoint or have a near-tied per-bus maximum are
    skipped (the hard-max loss is not differentiable there), as are
    coordinates whose derivative is below `min_grad` both ways (nothing to
    compare above the difference-quotient noise floor).
    """
    gen = np.random.default_rng(seed)
    raw0 = controller.raw_parameters()
    delta_star = solve_equilibrium(net)
    cache: dict[int, tuple[np.ndarray, bool]] = {}
    entries: list[tuple[int, int, float]] = []
    skipped = 0
    attempts = 0
    while len(entries) < pairs and attempts < 40 * pairs:
        attempts += 1
        s_idx = int(gen.integers(len(scenarios)))
        coord = int(gen.integers(raw0.size))
        scen = scenarios[s_idx]
        if s_idx not in cache:
            omega_h = _forward(net, controller, [scen], dt, cost.T, delta_star)[2]
            grad = grad_loss(
                net, controller, scen, cost,
                dt=dt, smooth_max=smooth_max, delta_star=delta_star,
            )[1]
            bad = not smooth_max and _near_kink_or_tie(
                omega_h, controller, tie_tol, kink_tol
            )
            cache[s_idx] = (grad, bad)
        grad, bad = cache[s_idx]
        if bad:
            skipped += 1
            continue
        hi, lo = raw0.copy(), raw0.copy()
        hi[coord] += fd_step
        lo[coord] -= fd_step
        args = dict(dt=dt, smooth_max=smooth_max, delta_star=delta_star)
        f_hi = batch_loss(net, controller.with_raw_parameters(hi), [scen], cost, **args)
        f_lo = batch_loss(net, controller.with_raw_parameters(lo), [scen], cost, **args)
        fd = (f_hi - f_lo) / (2 * fd_step)
        if abs(fd) < min_grad and abs(grad[coord]) < min_grad:
            skipped += 1
            continue
        rel = abs(fd - grad[coord]) / max(abs(fd), abs(grad[coord]))
        entries.append((s_idx, coord, float(rel)))
    if len(entries) < pairs:
        raise RuntimeError(
            f"could not collect {pairs} checkable pairs ({skipped} skipped)"
        )
    return GradientCheckReport(
        entries=tuple(entries),
        max_rel_err=float(max(e[2] for e in entries)),
        n_skipped=skipped,
    )
