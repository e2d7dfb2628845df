"""Scenario generation, transient loss, trajectory gradients, and training.

The transient loss of one closed-loop trajectory is

    loss = sum_i ( max_k |omega_i(k)| + gamma * c_i * dt * sum_{k<K} u_i(k)^2 )

and training minimizes its batch average by gradient descent on the raw
(unconstrained) controller parameters.  Gradients are exact reverse-mode
derivatives of the discretized rollout.  The forward pass is the explicit
Euler case of the one integrator in `dynamics`, by default at `DT_REF` (the
cadence the basis signals are defined over); certification and evaluation
use its RK4 case; `score_battery` scores an evaluation battery through the
integrator's observer, with `transient_loss` and `restoration_cost` as its
oracle.  gamma, the range the per-bus c_i are drawn from and the
loss horizon are module constants (`make_cost_spec`).  The backward pass
walks the same recurrence with hand-written vector-Jacobian products for
every term: network coupling via Hessian-vector products, controller terms
via one linearization of the controller (`Controller.linearize`).  The forward pass records the
frequency history alone, the one horizon-sized array of a gradient call; the
loss is reduced over it a block of records at a time, and an observer sums
the action and keeps the angles and estimates at the first step of each
forcing block.  Both passes read one `ScenarioStack`, which holds the run's
network, controller and step count; the backward pass walks the forward
pass's forcing blocks in reverse, rebuilding each bit for bit from the same
first row and turn table, and replays the block's angles, estimates and
controls from its start (they are pure integrals of omega, so no network
term is needed).  It takes the Hessian weights, one linearization of the
controller, the controller terms that do not feed the recurrence and the
action seed once per block.  The max is handled as a hard max with the
subgradient placed at the earliest maximizing sample, a single seed per
bus; a log-sum-exp softening, with a dense seed formed per record as the
adjoint reads it, is available behind a flag.

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
    FORCING_ROWS,
    Disturbance,
    IntegrationError,
    Scenario,
    ScenarioStack,
    Trajectory,
    _integrate,
    make_sinusoid_basis,
)
from .netmodel import Network, coi_project, hessian_weights, laplacian_vecprod, solve_equilibrium

__all__ = [
    "AdamState",
    "CostSpec",
    "GradientCheckReport",
    "Scenario",
    "TrainReport",
    "batch_loss",
    "grad_loss",
    "gradient_check",
    "make_cost_spec",
    "make_scenarios",
    "restoration_cost",
    "score_battery",
    "train",
    "transient_loss",
]

SMOOTH_MAX_TEMP = 100.0
EVAL_ONSET = 2.0  # step onset of simulate's, evaluate's and certify's scenarios
RESTORE_WINDOW = (10.0, 15.0)  # restoration window, seconds after the onset
MAX_STEP_BUSES = 3  # a scenario steps 1..MAX_STEP_BUSES buses
ACTION_WEIGHT = 0.1  # gamma of `make_cost_spec`
ACTION_COEFF_RANGE = (0.025, 0.075)  # per-bus c of `make_cost_spec`, drawn uniformly
COST_HORIZON = 4.0  # T of `make_cost_spec`, seconds
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
FD_STEP = 1e-4  # central-difference step of `gradient_check`
MIN_GRAD = 1e-6  # `gradient_check` skips derivatives below this both ways
GRAD_TOL = 1e-4  # largest relative error `GradientCheckReport.ok` accepts
_LOSS_BLOCK = 64  # records per block of `_loss_terms`'s reductions


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
    net: Network, rng: int | np.random.Generator | np.random.SeedSequence
) -> CostSpec:
    """Draw the per-bus action-cost coefficients once for a network."""
    gen = np.random.default_rng(rng)
    return CostSpec(ACTION_WEIGHT, gen.uniform(*ACTION_COEFF_RANGE, net.n), COST_HORIZON)


def make_scenarios(
    net: Network,
    count: int,
    seed: int | np.random.SeedSequence,
    *,
    noise_eps: float = 0.0,
    onset: float = 0.0,
    mag_cap: float = 1.0,
) -> tuple[Scenario, ...]:
    """Random disturbance scenarios: 1..min(MAX_STEP_BUSES, n) step buses with
    magnitudes U[-mag_cap, mag_cap] switching on at `onset`, fresh sinusoid
    basis each."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    out = []
    for child in ss.spawn(count):
        gen = np.random.default_rng(child)
        n_buses = int(gen.integers(1, min(MAX_STEP_BUSES, net.n) + 1))
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


def _cost_end(cost: CostSpec, t: np.ndarray, dt: float) -> int:
    """Record index of the cost horizon T on record times t from 0."""
    k_end = round(cost.T / dt)
    if k_end < 1 or k_end > t.shape[0] - 1:
        raise ValueError(f"trajectory covers {t[-1]:g} s but the cost horizon is {cost.T:g} s")
    return k_end


def _window_mask(t: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Records with window[0] <= t <= window[1], to 1e-9 s."""
    w0, w1 = window
    if w1 > t[-1] + 1e-9:
        raise ValueError(f"trajectory ends at {t[-1]:g} s, before the window end {w1:g} s")
    return (t >= w0 - 1e-9) & (t <= w1 + 1e-9)


def transient_loss(traj: Trajectory, cost: CostSpec) -> float:
    """Per-bus worst deviation plus the action integral over [0, T].

    The sup norm is taken over all recorded samples up to T inclusive; the
    integral is a left Riemann sum, so the record at T contributes no action.
    """
    k_end = _cost_end(cost, traj.t, traj.dt)
    peak = np.abs(traj.omega[: k_end + 1]).max(axis=0)
    action = (traj.u[:k_end] ** 2).sum(axis=0) * traj.dt
    return float(peak.sum() + cost.gamma * (cost.c * action).sum())


def restoration_cost(
    traj: Trajectory, window: tuple[float, float] = RESTORE_WINDOW
) -> float:
    """Mean |omega| over all buses and records with window[0] <= t <= window[1]."""
    return float(np.abs(traj.omega[_window_mask(traj.t, window)]).mean())


def score_battery(
    net: Network,
    controllers: Sequence[Controller],
    scenarios: Sequence[Scenario],
    cost: CostSpec,
    *,
    horizon: float,
    dt: float,
    method: str,
    delta_star: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Evaluation scores of every controller on every scenario, (C, B) each.

    The scores are those of a trajectory's tail from the `EVAL_ONSET`
    record on: `nadir`, the largest |omega|; `transient_loss`; `restoration`,
    the `restoration_cost`; `peak_u`, the largest |u|.  All controllers are
    integrated as one batch on a leading controller axis, and an observer of
    the integrator reduces each record as it comes, so no history is kept:
    running maxima of |omega| (taken at the cost horizon for the transient
    peak) and |u|, and running sums of u^2 over the action window and of
    |omega| over the restoration window.  Every score but restoration equals
    `transient_loss`, max |omega| or max |u| of the `rollout_batch` tail bit
    for bit; restoration sums its mean in another order.
    """
    stack = ScenarioStack(net, controllers, scenarios, horizon, dt, method, delta_star)
    t = np.arange(stack.n_steps + 1) * dt
    k0 = int(np.searchsorted(t, EVAL_ONSET - 1e-9))  # as `Trajectory.tail`
    if k0 > stack.n_steps:
        raise ValueError(f"tail start {EVAL_ONSET:g} is past the horizon {t[-1]:g}")
    tail_t = t[k0:] - t[k0]
    k_peak = k0 + _cost_end(cost, tail_t, dt)
    restore = np.zeros(t.shape, dtype=bool)
    restore[k0:] = _window_mask(tail_t, RESTORE_WINDOW)
    peak_w, peak_u, action, sum_w, peak_T = (np.zeros(stack.x0.shape[1:]) for _ in range(5))

    def observe(k, x, u):
        if k < k0:
            return
        abs_w = np.abs(x[1])
        np.maximum(peak_w, abs_w, out=peak_w)
        np.maximum(peak_u, np.abs(u), out=peak_u)
        if k < k_peak:
            np.add(action, u**2, out=action)
        elif k == k_peak:
            np.copyto(peak_T, peak_w)
        if restore[k]:
            np.add(sum_w, abs_w, out=sum_w)

    _integrate(stack, (), observe)
    return {
        "nadir": peak_w.max(axis=-1),
        "transient_loss": peak_T.sum(axis=-1)
        + cost.gamma * (cost.c * (action * dt)).sum(axis=-1),
        "restoration": sum_w.sum(axis=-1) / (restore.sum() * stack.n),
        "peak_u": peak_u.max(axis=-1),
    }


# --- Euler forward pass and adjoint ------------------------------------------


def _forward(net, controller, scenarios, dt, T, delta_star):
    """Euler rollout of the batch through the dynamics core, recording omega
    alone.

    Returns the scenario stack (the adjoint reads the network and controller
    from it and rebuilds its forcing blocks), the omega history (K+1, B, n),
    the starts the adjoint replays each forcing block from and the action sum,
    sum_{k<K} u_k^2, (B, n).  An observer of the integrator keeps the packed
    delta and estimate rows at the first step of each block, `starts`
    (blocks, 1 + l, B, n), and adds the squared controls in record order, bit
    for bit the blocked `_reduce_records` sum over the control history.
    """
    if isinstance(controller, SaturatedController):
        raise ControllerError("training through saturation is not supported")
    stack = ScenarioStack(net, controller, scenarios, T, dt, "euler", delta_star)
    K, x0 = stack.n_steps, stack.x0
    starts = np.empty(((K - 1) // FORCING_ROWS + 1, x0.shape[0] - 1) + x0.shape[1:])
    usq, sq = np.zeros(x0.shape[1:]), np.empty(x0.shape[1:])

    def observe(k, x, u):
        if k == K:
            return
        if k % FORCING_ROWS == 0:
            start = starts[k // FORCING_ROWS]
            start[0], start[1:] = x[0], x[2:]
        np.add(usq, np.square(u, out=sq), out=usq)

    omega_h = _integrate(stack, ("omega",), observe)["omega"]
    return stack, omega_h, starts, usq


def _reduce_records(ufunc, hist: np.ndarray, fill) -> np.ndarray:
    """ufunc.reduce over the records (axis 0) of fill(hist), `_LOSS_BLOCK`
    records at a time.

    fill(block, out) writes the block's elementwise values into out; they
    must be non-negative, as the reduction starts from 0.  Each block's
    reduction carries the running value in as its first row, and numpy
    reduces a non-inner axis one record after another, so the result is the
    whole-history reduction bit for bit.
    """
    rows = min(_LOSS_BLOCK, hist.shape[0])
    buf = np.empty((rows + 1,) + hist.shape[1:])
    acc = np.zeros(hist.shape[1:])
    for k0 in range(0, hist.shape[0], _LOSS_BLOCK):
        block = hist[k0 : k0 + _LOSS_BLOCK]
        r = block.shape[0]
        buf[0] = acc
        fill(block, buf[1 : r + 1])
        ufunc.reduce(buf[: r + 1], axis=0, out=acc)
    return acc


def _first_peak(omega_h: np.ndarray) -> np.ndarray:
    """Earliest record of each entry's largest |omega|, a block at a time."""
    shape = omega_h.shape[1:]
    best = np.full(shape, -np.inf)
    kstar = np.zeros(shape, dtype=np.intp)
    buf = np.empty((min(_LOSS_BLOCK, omega_h.shape[0]),) + shape)
    for k0 in range(0, omega_h.shape[0], _LOSS_BLOCK):
        block = omega_h[k0 : k0 + _LOSS_BLOCK]
        absw = np.abs(block, out=buf[: block.shape[0]])
        top = absw.max(axis=0)
        # strictly greater: on a tie the earlier block's record stays
        later = top > best
        if later.any():  # after the first peak most blocks raise none
            np.copyto(best, top, where=later)
            np.copyto(kstar, absw.argmax(axis=0) + k0, where=later)
    return kstar


class _SmoothSeed:
    """The smooth max's omega seed, sign(w) z / zsum / B with
    z = exp(TEMP (|w| - m)), formed for a record when the adjoint reads it."""

    def __init__(self, omega_h: np.ndarray, m: np.ndarray, zsum: np.ndarray):
        self.omega_h, self.m, self.zsum = omega_h, m, zsum

    def __contains__(self, k: int) -> bool:
        return 0 <= k < self.omega_h.shape[0]

    def __getitem__(self, k: int) -> tuple[slice, np.ndarray]:
        w = self.omega_h[k]
        z = np.exp(SMOOTH_MAX_TEMP * (np.abs(w) - self.m))
        return slice(None), (np.sign(w) * z / self.zsum / w.shape[0]).reshape(-1)


def _loss_terms(omega_h, usq, cost: CostSpec, dt, smooth_max: bool):
    """Batch-mean loss, given the omega history and the action sum
    usq = sum_{k<K} u_k^2, plus the loss seed on the omega history.

    The seed maps a record k to (flat (B, n) indices, values) where it is
    nonzero.  The hard max's seed is sign / B at each bus's earliest
    maximizer k*, so most records have none; the smooth max's is dense and
    formed per record as the adjoint reads it.  The seed on u,
    2 gamma c u dt / B, the adjoint forms per block from the controls it
    replays.  The reductions over omega run `_LOSS_BLOCK` records at a time,
    so nothing here is horizon-sized, and they equal the whole-history
    reductions bit for bit.
    """
    B = omega_h.shape[1]
    if smooth_max:
        m = _reduce_records(np.maximum, omega_h, np.abs)

        def fill_z(w, out):
            np.abs(w, out=out)
            np.subtract(out, m, out=out)
            np.multiply(SMOOTH_MAX_TEMP, out, out=out)
            np.exp(out, out=out)

        zsum = _reduce_records(np.add, omega_h, fill_z)
        peak = m + np.log(zsum) / SMOOTH_MAX_TEMP
        seed_w = _SmoothSeed(omega_h, m, zsum)
    else:
        kstar = _first_peak(omega_h)
        w_star = np.take_along_axis(omega_h, kstar[None], axis=0)[0]
        peak = np.abs(w_star)
        at: dict[int, list[int]] = {}
        for i, k in enumerate(kstar.ravel().tolist()):
            at.setdefault(k, []).append(i)
        value = np.sign(w_star).ravel() / B
        seed_w = {k: (idx, value[idx]) for k, idx in at.items()}
    action = usq * dt
    loss_b = peak.sum(axis=-1) + cost.gamma * (cost.c * action).sum(axis=-1)
    return float(loss_b.mean()), seed_w


def _add_seed(lam_w: np.ndarray, seed_w, k: int) -> None:
    """Add record k's omega seed to lam_w in place."""
    if k in seed_w:
        idx, value = seed_w[k]
        lam_w.reshape(-1)[idx] += value


def _replay(stack: ScenarioStack, omega_h, starts):
    """Rebuild the forward pass's delta, estimates and control for each
    forcing block, last block first, from the block's start.

    Yields (k0, phi view, delta, a_hat, terms) over the block's steps: the
    feature view and the estimates feature-first, (l, rows, B, n) (None
    without estimates), delta (rows, B, n) and `Controller.linearize` over the
    block, (u, du/domega, raw VJP).  Angles and estimates are pure integrals
    of omega and replay without a network term by the forward pass's own
    operations, so they equal its rows bit for bit:
    delta_{k+1} = coi(delta_k + dt coi(omega_k)), coi(omega) taken once per
    block, and ahat_{k+1} = ahat_k + dt adaptation(omega_k, phi_k), one
    contiguous add per step.  The arrays are views of buffers reused from
    block to block.
    """
    controller, dt, K = stack.controller, stack.dt, stack.n_steps
    l, rows = controller.n_features, min(FORCING_ROWS, K)
    delta = np.empty((rows,) + omega_h.shape[1:])
    a_hat = np.empty((rows, l) + omega_h.shape[1:])
    for block in range((K - 1) // FORCING_ROWS, -1, -1):
        k0 = block * FORCING_ROWS
        r = min(FORCING_ROWS, K - k0)
        omega, d, a = omega_h[k0 : k0 + r], delta[:r], a_hat[:r]
        # row j + 1 first holds step j's increment, then row j is added to
        # it; addition commutes, so the sum is the forward's bit for bit
        d[0], a[0] = starts[block, 0], starts[block, 1:]
        np.multiply(dt, coi_project(omega[:-1], out=d[1:]), out=d[1:])
        for j in range(r - 1):
            coi_project(np.add(d[j], d[j + 1], out=d[j + 1]), out=d[j + 1])
        view = a_view = None
        if l:
            view = controller.select_features(stack.forcing(block).swapaxes(0, 1))[:, :r]
            controller.adaptation(omega[:-1], view[:, :-1], out=a[1:].swapaxes(0, 1))
            np.multiply(dt, a[1:], out=a[1:])
            for j in range(r - 1):
                np.add(a[j], a[j + 1], out=a[j + 1])
            a_view = a.swapaxes(0, 1)
        yield k0, view, d, a_view, controller.linearize(omega, view, a_view)


def _backward(stack: ScenarioStack, omega_h, starts, seed_w, cost):
    """Adjoint sweep of the Euler recurrence of a stack's run; returns the
    raw-parameter gradient of its controller.

    omega is the one history it reads; delta, the estimates and the controls
    of each forcing block it replays from the block's start (`_replay`), so
    what it holds beside omega is block-sized.  Per block it takes the
    Hessian weights of the block's angles in one call and one linearization
    of the controller (one PWL segment lookup gives u, du/domega and the
    slope VJP).  The adjoint of the estimates, lam_a, is feature-first,
    (l, B, n), like the estimate rows of the packed state.  Per step only
    bar_omega, its pull-back onto the frequencies, feeds the recurrence;
    dt * lam_a is kept per forcing block, (rows, l, B, n), and the rate
    gradient sum_k sum_b dt lam_a omega phi is reduced once per block, as
    are the base controller's VJP and the action seed.  The omega seed is
    read one record at a time through `_add_seed`, from the hard max's dict
    or the smooth max's `_SmoothSeed`, so no dense seed is held.
    """
    net, controller = stack.net, stack.controller
    K, n, B = stack.n_steps, stack.n, stack.B
    adaptive = isinstance(controller, AdaptiveController)
    grad = np.zeros(controller.raw_parameters().size)
    lam_d = np.zeros((B, n))
    lam_w = np.zeros((B, n))
    _add_seed(lam_w, seed_w, K)
    lam_a = np.zeros((controller.n_features, B, n))
    rows = min(FORCING_ROWS, K)
    bar_u_block = np.empty((rows, B, n))
    bar_a_block = np.empty((rows,) + lam_a.shape)
    dt = stack.dt
    dt_D = dt * net.D
    for k0, view, delta, _, (seed_u, du_dw, vjp_raw) in _replay(stack, omega_h, starts):
        k1 = k0 + delta.shape[0]
        weights = hessian_weights(net, delta)
        # u becomes the action seed 2 gamma c u dt / B in place
        np.multiply(2.0 * cost.gamma * cost.c, seed_u, out=seed_u)
        seed_u *= dt
        seed_u /= B
        for k in range(k1 - 1, k0 - 1, -1):
            # the zero-mean projection is symmetric and idempotent, so both the
            # delta->delta and omega->delta branches pull back through it once
            lam_dp = coi_project(lam_d)
            g_m = lam_w / net.M
            bar_u = np.add(-dt * g_m, seed_u[k - k0], out=bar_u_block[k - k0])
            new_lam_d = lam_dp - dt * laplacian_vecprod(net, weights[k - k0], g_m)
            _add_seed(lam_w, seed_w, k)  # after g_m, which takes lam_w without it
            new_lam_w = lam_w + dt * lam_dp - dt_D * g_m + bar_u * du_dw[k - k0]
            if adaptive:
                phi = view[:, k - k0]
                bar_a = np.multiply(dt, lam_a, out=bar_a_block[k - k0])
                new_lam_w += controller.adaptation_vjp_omega(phi, bar_a)
                lam_a = lam_a + controller.control_vjp_ahat(phi, bar_u)
            lam_d, lam_w = new_lam_d, new_lam_w
            if not np.isfinite(lam_w).all():
                raise IntegrationError(f"non-finite adjoint at step {k}")
        grad += vjp_raw(bar_u_block[: k1 - k0])
        if adaptive:
            grad[controller.rate_block] += controller.adaptation_vjp(
                omega_h[k0:k1], view, bar_a_block[: k1 - k0].swapaxes(0, 1)
            )
        # free this block's terms before the next block's are formed
        del seed_u, du_dw, vjp_raw, weights
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
    """Batch-mean transient loss of the Euler-discretized closed loop.

    The forward pass records omega alone and sums the action as it runs."""
    _, omega_h, _, usq = _forward(net, controller, scenarios, dt, cost.T, delta_star)
    return _loss_terms(omega_h, usq, cost, dt, smooth_max)[0]


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

    The one horizon-sized array of a call is the omega history: the loss is
    reduced over it a block of records at a time, and the adjoint replays
    delta, the estimates and the controls a forcing block at a time from
    starts the forward pass kept.  Raises IntegrationError naming the step
    (and, for the forward state, the scenario in a batch) if the forward
    state or the adjoint sweep produces non-finite values.
    """
    if isinstance(scenarios, Scenario):
        scenarios = [scenarios]
    return _loss_grad(net, controller, scenarios, cost, dt, smooth_max, delta_star)[:2]


def _loss_grad(net, controller, scenarios, cost, dt, smooth_max, delta_star):
    """`grad_loss`'s loss and gradient, and the omega history they came from."""
    # overflow here is a divergence signal, not a bug: it surfaces as
    # IntegrationError and the training loop falls back to good parameters
    with np.errstate(over="ignore", invalid="ignore"):
        stack, omega_h, starts, usq = _forward(
            net, controller, scenarios, dt, cost.T, delta_star
        )
        loss, seed_w = _loss_terms(omega_h, usq, cost, dt, smooth_max)
        grad = _backward(stack, omega_h, starts, seed_w, cost)
    if not np.all(np.isfinite(grad)):
        raise IntegrationError("non-finite gradient in the adjoint sweep")
    return loss, grad, omega_h


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

    def update(self, raw: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        beta1, beta2 = ADAM_BETAS
        self.t += 1
        self.m = beta1 * self.m + (1 - beta1) * grad
        self.v = beta2 * self.v + (1 - beta2) * grad**2
        mhat = self.m / (1 - beta1**self.t)
        vhat = self.v / (1 - beta2**self.t)
        return raw - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

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

    def ok(self) -> bool:
        return self.max_rel_err <= GRAD_TOL


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
    dt: float = 0.01,
    smooth_max: bool = False,
    tie_tol: float = 1e-6,
    kink_tol: float = 1e-6,
) -> GradientCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    Samples (scenario, coordinate) pairs.  Scenarios whose trajectories pass
    within `kink_tol` of a breakpoint or have a near-tied per-bus maximum are
    skipped (the hard-max loss is not differentiable there), as are
    coordinates whose derivative is below `MIN_GRAD` both ways (nothing to
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
            _, grad, omega_h = _loss_grad(
                net, controller, [scen], cost, dt, smooth_max, delta_star
            )
            bad = not smooth_max and _near_kink_or_tie(
                omega_h, controller, tie_tol, kink_tol
            )
            cache[s_idx] = (grad, bad)
        grad, bad = cache[s_idx]
        if bad:
            skipped += 1
            continue
        hi, lo = raw0.copy(), raw0.copy()
        hi[coord] += FD_STEP
        lo[coord] -= FD_STEP
        args = dict(dt=dt, smooth_max=smooth_max, delta_star=delta_star)
        f_hi = batch_loss(net, controller.with_raw_parameters(hi), [scen], cost, **args)
        f_lo = batch_loss(net, controller.with_raw_parameters(lo), [scen], cost, **args)
        fd = (f_hi - f_lo) / (2 * FD_STEP)
        if abs(fd) < MIN_GRAD and abs(grad[coord]) < MIN_GRAD:
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
