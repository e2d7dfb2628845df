"""Energy function, quadratic bounds, and trajectory-decrease certification.

The certified energy is

    V(delta, omega, ahat) = 1/2 sum_i M_i omega_i^2            (kinetic)
                          + W_p(delta)                          (potential)
                          + 1/2 sum_i (ahat_i - a_i)' A_i^-1 (ahat_i - a_i)

where W_p is the Bregman gap of the network potential S at the equilibrium
delta_star.  Within the operating region (every edge angle difference at
least `margin` away from pi/2) V is sandwiched between gamma1 and gamma2
times the squared distance to the equilibrium point, and along closed-loop
trajectories of a conforming controller dV/dt <= -sum_i D_i omega_i^2.

The gamma constants are assembled from eigenvalue bounds of the Hessian of S
restricted to the zero-mean subspace.  Because the Hessian is a Laplacian
whose edge weights B_e cos(delta_e) are bounded between B_e cos(pi/2-margin)
and B_e over the whole region, and Laplacians are monotone in their weights,
the extreme-weight eigensolves give bounds valid at every region point, not
just at sampled ones.  Sampled estimates are still computed as a cross-check
and reported alongside.

The decrease check differentiates V numerically along the trajectory of a
noise-free `Scenario`, whose disturbance gives the step schedule: steps
switch on at known record indices and stay constant, so within each
inter-onset segment they are folded into the constant-feature coefficient
and the segment solves a smooth ODE.  V is differenced per segment (central
inside, second-order one-sided at the ends), keeping the error O(dt^2); the
constant c in `tol = c * dt^2` comes from `fit_margin_constant`, which
measures the third derivative of V driving that stencil error.

Both read an `EnergySeries`: per-record (K+1, B) terms of V, the damping
dissipation and the largest line angle.  `stream_energy` fills one while it
integrates a battery, through the integrator's per-record observer, so no
state history is kept; `check_decrease` and `fit_margin_constant` build one
from a recorded `Trajectory`, its records taken as the batch, and stay the
independent oracle of the streamed path.  One function computes the terms
and one path splits segments and applies the stencils, for both.

`certify` alone decides a certificate: it streams the calibration and
battery scenarios suited to the controller as one batch, requires every row
to stay in the region, fits the tolerance on the calibration rows, checks
the decrease on the rest, and refuses saturated controllers.

Everything here needs the true basis coefficients, so this module is
simulation-side instrumentation: controllers never see it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .controllers import AdaptiveController, Controller, SaturatedController
from .dynamics import (
    BasisSignal,
    Disturbance,
    IntegrationError,
    Scenario,
    ScenarioStack,
    SystemState,
    Trajectory,
    _integrate,
    _n_steps,
    _step_table,
)
from .netmodel import Network, coi_project, hessian_S
from .training import EVAL_ONSET, make_scenarios

__all__ = [
    "CertificationError",
    "DecreaseReport",
    "EnergySeries",
    "GammaBounds",
    "LyapunovEval",
    "MarginFit",
    "RoaEstimate",
    "certify",
    "check_decrease",
    "compute_gammas",
    "estimate_roa",
    "eval_V",
    "eval_Wp",
    "fit_margin_constant",
    "series_decrease",
    "series_margin_constant",
    "stream_energy",
]


class CertificationError(RuntimeError):
    """Certification could not be carried out on the given inputs; `verdict`
    is "refused" for a controller outside the certified class."""

    def __init__(self, message: str, verdict: str = "failed"):
        super().__init__(message)
        self.verdict = verdict


@dataclass(frozen=True)
class LyapunovEval:
    """Energy components at one state; V = kinetic + Wp + est_err exactly."""

    V: float
    Wp: float
    kinetic: float
    est_err: float


@dataclass(frozen=True)
class GammaBounds:
    """Quadratic sandwich constants over the margin region.

    beta1/beta2 are the rigorous extreme-weight Laplacian bounds; the
    *_sampled values are the min/max over `samples` random region points,
    kept as a consistency check (sampled bounds can only be tighter).
    """

    gamma1: float
    gamma2: float
    beta1: float
    beta2: float
    beta1_sampled: float
    beta2_sampled: float
    margin: float
    samples: int


@dataclass(frozen=True)
class RoaEstimate:
    """Certified sublevel set: ball radius r, level rho, membership via gamma2."""

    r: float
    rho: float
    gamma1: float
    gamma2: float
    margin: float
    valid: bool

    def contains(
        self,
        state: SystemState,
        delta_star: np.ndarray,
        coeffs_true: np.ndarray | None = None,
    ) -> bool:
        """Conservative membership test: gamma2 * ||x||^2 <= rho."""
        s = float(((state.delta - delta_star) ** 2).sum() + (state.omega**2).sum())
        if state.a_hat.size:
            if coeffs_true is None:
                raise ValueError("coeffs_true required for adaptive states")
            s += float(((state.a_hat - coeffs_true) ** 2).sum())
        return self.gamma2 * s <= self.rho


@dataclass(frozen=True)
class DecreaseReport:
    """Outcome of the discrete energy-decrease check along one trajectory."""

    worst_margin: float
    worst_time: float
    tol: float
    passed: bool
    n_segments: int


@dataclass(frozen=True)
class MarginFit:
    """Fitted tolerance constant for the decrease check."""

    tol_coeff: float


def eval_Wp(net: Network, delta: np.ndarray, delta_star: np.ndarray) -> np.ndarray:
    """Bregman gap of S at delta_star, in the per-edge cosine form; batched."""
    d = net.edge_differences(delta)
    d0 = net.edge_differences(delta_star)
    return (net.b_edge * (np.cos(d0) - np.cos(d) + np.sin(d0) * (d0 - d))).sum(axis=-1)


def _energy(net, controller, delta_star, delta, omega, a_hat, coeffs):
    """Kinetic, potential and estimation (0.0 without `coeffs`) parts of V; batched."""
    kinetic = 0.5 * (net.M * omega**2).sum(axis=-1)
    return kinetic, eval_Wp(net, delta, delta_star), _estimation_error(controller, a_hat, coeffs)


def _estimation_error(controller, a_hat, coeffs):
    """1/2 sum_i (ahat_i - a_i)' A_i^-1 (ahat_i - a_i), batched; 0.0 without `coeffs`."""
    if coeffs is None:
        return 0.0
    if coeffs.shape[-2:] != a_hat.shape[-2:]:
        raise ValueError(
            f"estimate/coefficient shape mismatch: {a_hat.shape[-2:]} vs {coeffs.shape[-2:]}"
        )
    err = a_hat - coeffs
    return 0.5 * (err * err / controller.rates).sum(axis=(-2, -1))


def eval_V(
    net: Network,
    state: SystemState,
    basis: BasisSignal,
    controller: Controller,
    delta_star: np.ndarray,
    *,
    coeffs_true: np.ndarray | None = None,
) -> LyapunovEval:
    """All energy components at one state.

    For adaptive controllers the estimation error is measured against the
    controller's view of the true coefficients (override with `coeffs_true`
    when step disturbances have been folded into the constant feature).
    Non-adaptive controllers contribute no estimation term.
    """
    if not isinstance(controller, AdaptiveController):
        coeffs_true = None
    elif coeffs_true is None:
        coeffs_true = controller.select_features(basis.coeffs)
    kinetic, wp, est = map(float, _energy(
        net, controller, delta_star, state.delta, state.omega, state.a_hat, coeffs_true
    ))
    return LyapunovEval(V=kinetic + wp + est, Wp=wp, kinetic=kinetic, est_err=est)


def compute_gammas(
    net: Network,
    controller: Controller | None = None,
    *,
    margin: float = 0.01,
    samples: int = 10_000,
    rng: int | np.random.Generator = 0,
) -> GammaBounds:
    """Sandwich constants over the region max|delta_ij| <= pi/2 - margin.

    gamma1 = 1/2 min(min_i M_i, 2 beta1, 1/max A entries) and gamma2 the
    matching max with 1/min A; the adaptation terms drop out for
    non-adaptive controllers.  Raises CertificationError when the region is
    empty or the bounds degenerate.
    """
    if not 0 < margin < np.pi / 2:
        raise CertificationError("margin must lie strictly between 0 and pi/2")
    bound = np.pi / 2 - margin
    lap = hessian_S(net, np.zeros(net.n))
    evals = np.linalg.eigvalsh(lap)
    lam_min = evals[1] if net.n > 1 else 0.0
    lam_max = evals[-1]
    cmin = np.cos(bound)
    beta1 = 0.5 * cmin * lam_min
    beta2 = 0.5 * lam_max
    if beta1 <= 0:
        raise CertificationError(
            "region bound produced beta1 <= 0 (disconnected graph or margin ~ 0); "
            "reduce the region or check the case"
        )

    gen = np.random.default_rng(rng)
    half = bound / 2
    b1s, b2s = np.inf, -np.inf
    for _ in range(int(samples)):
        delta = gen.uniform(-half, half, net.n)
        ev = np.linalg.eigvalsh(hessian_S(net, coi_project(delta)))
        b1s = min(b1s, 0.5 * (ev[1] if net.n > 1 else 0.0))
        b2s = max(b2s, 0.5 * ev[-1])

    terms_lo = [net.M.min(), 2 * beta1]
    terms_hi = [net.M.max(), 2 * beta2]
    if isinstance(controller, AdaptiveController):
        rates = controller.rates
        terms_lo.append(1.0 / rates.max())
        terms_hi.append(1.0 / rates.min())
    gamma1 = 0.5 * min(terms_lo)
    gamma2 = 0.5 * max(terms_hi)
    return GammaBounds(
        gamma1=float(gamma1),
        gamma2=float(gamma2),
        beta1=float(beta1),
        beta2=float(beta2),
        beta1_sampled=float(b1s),
        beta2_sampled=float(b2s),
        margin=margin,
        samples=int(samples),
    )


@dataclass(frozen=True, eq=False)
class EnergySeries:
    """Per-record energy terms of a battery, each array (K+1, B), row b
    belonging to `scenarios[b]`; `t` holds the record times.

    `kinetic_wp` is the kinetic energy plus W_p.  `est` is the estimation
    error with the steps active at the record folded into the constant
    feature, `est_prev` the same with the steps active one step earlier (the
    two differ only at onset records); both are zero for controllers without
    estimates.  `diss` is sum_i D_i omega_i^2, and `spread` the largest line
    angle |delta_i - delta_j| with `edge` its line index.
    """

    scenarios: tuple[Scenario, ...]
    t: np.ndarray
    dt: float
    kinetic_wp: np.ndarray
    est: np.ndarray
    est_prev: np.ndarray
    diss: np.ndarray
    spread: np.ndarray
    edge: np.ndarray


def _terms(net, controller, delta_star, delta, omega, a_hat, target, target_prev):
    """The `EnergySeries` terms, in field order, at a batch of states (any leading axes).

    `target` is the estimation target (None without estimates), and
    `target_prev` the one a step earlier (None: the same).
    """
    kinetic, wp, est = _energy(net, controller, delta_star, delta, omega, a_hat, target)
    est_prev = est if target_prev is None else _estimation_error(controller, a_hat, target_prev)
    spread = np.abs(net.edge_differences(delta))
    return (
        kinetic + wp, est, est_prev, (net.D * omega**2).sum(axis=-1),
        spread.max(axis=-1), spread.argmax(axis=-1),
    )


def _targets(controller, scenarios, steps: dict[int, np.ndarray]) -> dict[int, np.ndarray] | None:
    """Estimation targets of a battery, (B, n, l), at each record of its
    `_step_table`: the true coefficients in the controller's view with the
    steps active from that record on folded into the constant feature.
    None for controllers without estimates."""
    if not isinstance(controller, AdaptiveController):
        return None
    coeffs = controller.select_features(np.stack([s.basis.coeffs for s in scenarios]))
    out = {}
    for k, injection in steps.items():
        fold = np.array(coeffs)
        fold[..., -1] += injection
        out[k] = fold
    return out


def stream_energy(
    net: Network,
    controller: Controller,
    scenarios: Sequence[Scenario],
    delta_star: np.ndarray,
    *,
    horizon: float,
    dt: float,
) -> EnergySeries:
    """Integrate a battery as one RK4 batch, keeping only its energy terms.

    The integrator hands every record's (B, n) state to an observer that
    fills the (K+1, B) series, so no horizon-long state history is kept.  A
    row's terms match those `check_decrease` takes from the `rollout_batch`
    trajectory of the same battery.  IntegrationError carries the first
    diverging row.
    """
    scenarios = tuple(scenarios)
    n_steps = _n_steps(horizon, dt)
    stack = ScenarioStack(net, scenarios, dt, n_steps, controller.n_features, delta_star)
    shape = (n_steps + 1, stack.B)
    columns = [np.empty(shape) for _ in range(5)] + [np.empty(shape, dtype=int)]
    targets = _targets(controller, scenarios, stack.steps)
    target = None

    def observe(k, delta, omega, a_hat):
        nonlocal target
        prev = None
        if targets is not None and k in targets:
            prev, target = target, targets[k]
        terms = _terms(net, controller, delta_star, delta, omega, a_hat, target, prev)
        for col, x in zip(columns, terms):
            col[k] = x

    _integrate(net, controller, stack, "rk4", (), observe)
    return EnergySeries(scenarios, np.arange(n_steps + 1) * dt, dt, *columns)


def _trajectory_series(traj, net, scenario, controller, delta_star) -> EnergySeries:
    """The series of one recorded trajectory, its K+1 records taken as one batch."""
    n_steps = traj.n_records - 1
    steps = _step_table([scenario], net.n, traj.dt, n_steps)
    targets = _targets(controller, [scenario], steps)
    target = prev = None
    if targets is not None:
        keys = sorted(targets)
        table = np.concatenate([targets[k] for k in keys])
        at = np.searchsorted(keys, np.arange(n_steps + 1), side="right") - 1
        target, prev = table[at], table[np.concatenate([at[:1], at[:-1]])]
    terms = _terms(
        net, controller, delta_star, traj.delta, traj.omega, traj.a_hat, target, prev
    )
    return EnergySeries(
        (scenario,), traj.t, traj.dt,
        *(np.broadcast_to(x, (n_steps + 1,))[:, None] for x in terms),
    )


def _segments(series: EnergySeries, row: int):
    """Yield (start, V, dV/dt + sum_i D_i omega_i^2) per inter-onset segment of a row.

    The steps active at a segment's start stay folded into the constant
    feature through its last record, the onset of the next steps included.
    dV/dt is central inside, one-sided at the ends (both second order) and
    NaN on segments of fewer than 3 records.
    """
    dist, dt = series.scenarios[row].dist, series.dt
    if dist.noise_eps:
        raise ValueError("the decrease check needs a noise-free scenario")
    n_steps = series.t.shape[0] - 1
    onsets = dist.onset_indices(dt, n_steps)
    bounds = [0, *onsets, n_steps]
    for start, end in zip(bounds[:-1], bounds[1:]):
        est = series.est[start:end + 1, row]
        if end > start and end in onsets:
            est = np.append(est[:-1], series.est_prev[end, row])
        v = series.kinetic_wp[start:end + 1, row] + est
        dv = np.full(v.shape, np.nan)
        if v.size >= 3:
            dv[1:-1] = (v[2:] - v[:-2]) / (2 * dt)
            dv[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dt)
            dv[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * dt)
        yield start, v, dv + series.diss[start:end + 1, row]


def series_decrease(series: EnergySeries, row: int, *, tol_coeff: float) -> DecreaseReport:
    """`check_decrease` on one row of a series."""
    segs = list(_segments(series, row))
    margin = np.concatenate([m for _, _, m in segs])
    # segments share their boundary records, so a record can appear twice
    records = np.concatenate([np.arange(s, s + m.size) for s, _, m in segs])
    if np.isnan(margin).all():
        raise ValueError("trajectory too short for the decrease check")
    k = int(np.nanargmax(margin))
    worst = float(margin[k])
    tol = tol_coeff * series.dt**2
    return DecreaseReport(
        worst_margin=worst,
        worst_time=float(series.t[records[k]]),
        tol=float(tol),
        passed=bool(worst <= tol),
        n_segments=len(segs),
    )


def check_decrease(
    traj: Trajectory,
    net: Network,
    scenario: Scenario,
    controller: Controller,
    delta_star: np.ndarray,
    *,
    tol_coeff: float,
) -> DecreaseReport:
    """Assert dV/dt <= -sum_i D_i omega_i^2 along `traj`, rolled from `scenario`.

    The scenario must be noise-free.  The margin at each record is the
    numerical dV/dt plus the damping dissipation; a conforming controller
    keeps every margin below tol_coeff * dt^2.  A violation beyond that
    signals a controller outside the certified class (or a tolerance
    constant fitted at the wrong dt).
    """
    series = _trajectory_series(traj, net, scenario, controller, delta_star)
    return series_decrease(series, 0, tol_coeff=tol_coeff)


def _third_derivative(series: EnergySeries, row: int) -> float:
    """max |V'''| over the row's segments of 5 records or more (0.0 if none)."""
    v3 = 0.0
    for _, v, _ in _segments(series, row):
        if v.size >= 5:
            d3 = (v[4:] - 2 * v[3:-1] + 2 * v[1:-3] - v[:-4]) / (2 * series.dt**3)
            v3 = max(v3, float(np.abs(d3).max()))
    return v3


MARGIN_SAFETY = 4.0  # default multiple of the stencil-error estimate in the tolerance


def _margin_fit(v3s, safety: float) -> MarginFit:
    v3 = max([0.0, *v3s])
    if v3 == 0.0:
        raise CertificationError("calibration trajectories too short to fit a tolerance")
    return MarginFit(tol_coeff=float(safety * v3 / 3.0))


def series_margin_constant(series: EnergySeries, rows: Sequence[int]) -> MarginFit:
    """`fit_margin_constant` on the given rows of a series."""
    return _margin_fit((_third_derivative(series, b) for b in rows), MARGIN_SAFETY)


def fit_margin_constant(
    trajectories: Sequence[Trajectory],
    net: Network,
    scenarios: Sequence[Scenario],
    controller: Controller,
    delta_star: np.ndarray,
    *,
    safety: float = MARGIN_SAFETY,
) -> MarginFit:
    """Calibrate the decrease-check tolerance from trajectory data.

    Both difference stencils used by `check_decrease` have error bounded by
    (dt^2 / 3) |V'''|, so the constant is safety * max|V'''| / 3 with V'''
    estimated by third differences of the segment-folded energy series.
    Calibrating on rollouts of other scenarios than the ones under test
    keeps the tolerance independent of the check it feeds.
    """
    return _margin_fit(
        (
            _third_derivative(_trajectory_series(traj, net, scen, controller, delta_star), 0)
            for traj, scen in zip(trajectories, scenarios, strict=True)
        ),
        safety,
    )


def estimate_roa(
    net: Network,
    bounds: GammaBounds,
    delta_star: np.ndarray,
    *,
    margin_frac: float = 0.1,
) -> RoaEstimate:
    """Largest certified ball and sublevel set around the equilibrium.

    A ball of radius r in the joint (delta - delta_star, omega, ahat - a)
    space keeps every edge difference within the margin region as long as
    sqrt(2) r plus the equilibrium spread stays below pi/2 - margin; the
    level rho = gamma1 r^2 (1 - margin_frac) then sits strictly below the
    lower quadratic bound on the ball boundary.
    """
    d0 = np.abs(net.edge_differences(delta_star)).max() if net.n_edges else 0.0
    r = (np.pi / 2 - bounds.margin - d0) / np.sqrt(2.0)
    rho = bounds.gamma1 * r**2 * (1.0 - margin_frac)
    valid = bool(r > 0 and rho > 0)
    return RoaEstimate(
        r=float(r),
        rho=float(rho) if valid else 0.0,
        gamma1=bounds.gamma1,
        gamma2=bounds.gamma2,
        margin=bounds.margin,
        valid=valid,
    )


def _zero_sinusoids(scen: Scenario) -> Scenario:
    coeffs = np.array(scen.basis.coeffs)
    coeffs[:, :-1] = 0.0
    return replace(scen, basis=replace(scen.basis, coeffs=coeffs))


def _certify_battery(
    net: Network, controller: Controller, count: int, seed: np.random.SeedSequence,
    delta_star: np.ndarray,
) -> tuple[Scenario, ...]:
    """Scenarios on which the decrease guarantee applies to this controller.

    Full-basis adaptive controllers get steps plus sinusoid variation;
    constant-feature ones get steps only (sinusoids are outside their model
    class); static controllers get no injection change at all, just perturbed
    in-region initial states, since their guarantee is around a fixed
    operating point.
    """
    if isinstance(controller, AdaptiveController):
        scens = make_scenarios(net, count, seed, onset=EVAL_ONSET)
        if controller.feature_mode == "constant":
            scens = tuple(_zero_sinusoids(s) for s in scens)
        return scens
    out = []
    for child in seed.spawn(count):
        gen = np.random.default_rng(child)
        eta = gen.uniform(0.005 * np.pi, 0.02 * np.pi, (net.n, 2))
        basis = BasisSignal(eta, np.zeros((net.n, 3)))
        x0 = SystemState(
            coi_project(delta_star + gen.uniform(-0.05, 0.05, net.n)),
            gen.uniform(-0.05, 0.05, net.n),
            np.zeros((net.n, 0)),
        )
        out.append(Scenario(Disturbance(), basis, x0))
    return tuple(out)


def _region_exit(net: Network, series: EnergySeries, row: int, bound: float) -> str | None:
    """Where a row first has a line angle |delta_i - delta_j| above `bound`."""
    out = np.flatnonzero(series.spread[:, row] > bound)
    if not out.size:
        return None
    k = out[0]
    i, j = net.edges[series.edge[k, row]]
    return (
        f"t={series.t[k]:.3f} s: line {net.bus_ids[i]}-{net.bus_ids[j]} angle "
        f"{series.spread[k, row]:.3f} rad exceeds pi/2 - margin = {bound:.3f} rad"
    )


def certify(
    net: Network, controller: Controller, delta_star: np.ndarray, *,
    scenarios: int, calibration: int, seed: int,
    horizon: float, dt: float, margin: float, samples: int,
) -> tuple[dict, list[str]]:
    """The certificate of `controller` as a JSON-ready document, and its causes
    of failure; it passes when there are none and the region estimate is
    valid.  A saturated controller is refused with CertificationError."""
    if isinstance(controller, SaturatedController):
        raise CertificationError(
            "saturated controllers are outside the certified class", verdict="refused"
        )
    batt_ss, cal_ss = np.random.SeedSequence(seed).spawn(2)
    battery = _certify_battery(net, controller, scenarios, batt_ss, delta_star)
    cal = _certify_battery(net, controller, calibration, cal_ss, delta_star)
    names = [f"calibration trajectory {i}" for i in range(len(cal))]
    names += [f"trajectory {i}" for i in range(len(battery))]
    # one batch, calibration rows first, reduced to energy terms as it runs
    try:
        series = stream_energy(net, controller, cal + battery, delta_star, horizon=horizon, dt=dt)
    except IntegrationError as exc:
        raise IntegrationError(
            f"{names[exc.row]} diverged: non-finite state at step {exc.step} "
            f"(t={exc.t:.6g})"
        ) from None
    bound = np.pi / 2 - margin
    failures = [
        f"{name} left the operating region at {where}"
        for row, name in enumerate(names)
        if (where := _region_exit(net, series, row, bound)) is not None
    ]
    tol_coeff = series_margin_constant(series, range(len(cal))).tol_coeff
    reports = [
        series_decrease(series, row, tol_coeff=tol_coeff)
        for row in range(len(cal), len(names))
    ]
    worst = max(reports, key=lambda r: r.worst_margin)
    if not worst.passed:
        failures.append(
            f"margin {worst.worst_margin:.3e} at t={worst.worst_time:.3f} s "
            f"exceeds tol {worst.tol:.3e}"
        )
    bounds = compute_gammas(net, controller, margin=margin, samples=samples, rng=seed)
    roa = estimate_roa(net, bounds, delta_star)
    return {
        **asdict(bounds), "dt": dt, "horizon": horizon, "tol_coeff": tol_coeff,
        "worst_margin": worst.worst_margin, "worst_time": worst.worst_time, "tol": worst.tol,
        "worst_by_trajectory": [r.worst_margin for r in reports],
        "n_trajectories": len(reports),
        "roa": {"r": roa.r, "rho": roa.rho, "valid": roa.valid},
        "pass": roa.valid and not failures,
    }, failures
