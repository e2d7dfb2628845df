"""Acceptance gate: every guarantee the package makes, checked end to end.

The battery trains the three compared controller types at desk scale on the
39-bus case once (shared fixture), then verifies energy decrease along
closed-loop trajectories, frequency restoration, the training cost ordering,
gradient correctness, the quadratic energy sandwich, the PI reduction of the
constant-feature controller, equilibrium/conservation identities, integrator
order, and robustness to injection noise.  Each criterion prints one
PASS/FAIL summary line directly to the terminal, so a full run reads as a
checklist.  Expect roughly ten minutes total; the training fixture dominates.
"""

import time

import numpy as np
import pytest

from swingfreq.controllers import (
    AdaptiveController,
    DroopController,
    MonotonePWLController,
)
from swingfreq.dynamics import (
    BasisSignal,
    Disturbance,
    Scenario,
    SystemState,
    make_constant_basis,
    make_sinusoid_basis,
    rollout,
    rollout_batch,
)
from swingfreq.lyapunov import (
    check_decrease,
    compute_gammas,
    eval_V,
    fit_margin_constant,
)
from swingfreq.netmodel import grad_S, solve_equilibrium
from swingfreq.training import (
    gradient_check,
    make_cost_spec,
    make_scenarios,
    restoration_cost,
    train,
    transient_loss,
)


def _report(capsys, num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def trained(ne39):
    """Train droop, integral, and adaptive controllers at desk scale.

    Shared by the trajectory criteria below; the wall time is charged to the
    cost-ordering budget, which is the one criterion whose budget includes
    training.
    """
    cost = make_cost_spec(ne39, 0)
    scens = make_scenarios(
        ne39, 50, np.random.SeedSequence(0).spawn(2)[0], onset=0.0
    )
    fresh = {
        "droop": DroopController.initial(ne39.n),
        "integral": AdaptiveController.initial(
            MonotonePWLController.initial(ne39.n), 1, feature_mode="constant"
        ),
        "adaptive": AdaptiveController.initial(
            MonotonePWLController.initial(ne39.n), 3, feature_mode="basis"
        ),
    }
    out = {"cost": cost}
    t0 = time.perf_counter()
    for kind, ctrl in fresh.items():
        report = train(
            ne39, ctrl, scens, cost, epochs=200, batch_size=25, lr=1e-3, seed=0
        )
        assert not report.aborted, f"{kind} training diverged"
        out[kind] = report.controller
    out["train_seconds"] = time.perf_counter() - t0
    return out


DECREASE_BLOCK = 25  # rows per batch; a block's a_hat history is (1201, 25, 39, 3), 28 MB


def _decrease_rows(net, ctrl, delta_star, scenarios):
    """(scenario, trajectory) pairs of 6 s RK4 rollouts at dt 0.005, integrated
    as batteries of at most DECREASE_BLOCK rows, recording what the decrease
    check reads; a block is dropped once its rows are consumed."""
    for lo in range(0, len(scenarios), DECREASE_BLOCK):
        rows = scenarios[lo:lo + DECREASE_BLOCK]
        yield from zip(rows, rollout_batch(
            net, ctrl, rows, horizon=6.0, dt=0.005, delta_star=delta_star,
            record=("delta", "omega", "a_hat"),
        ))


def test_energy_decreases_along_trained_trajectories(ne39, ne39_eq, trained, capsys):
    t0 = time.perf_counter()
    ctrl = trained["adaptive"]
    batt_ss, cal_ss = np.random.SeedSequence(777).spawn(2)
    battery = make_scenarios(ne39, 100, batt_ss, onset=2.0)
    calibration = make_scenarios(ne39, 5, cal_ss, onset=2.0)
    cal_trajs = [traj for _, traj in _decrease_rows(ne39, ctrl, ne39_eq, calibration)]
    fit = fit_margin_constant(cal_trajs, ne39, calibration, ctrl, ne39_eq)
    reports = [
        check_decrease(traj, ne39, s, ctrl, ne39_eq, tol_coeff=fit.tol_coeff)
        for s, traj in _decrease_rows(ne39, ctrl, ne39_eq, battery)
    ]
    worst = max(r.worst_margin for r in reports)
    tol = fit.tol_coeff * 0.005**2
    violations = sum(not r.passed for r in reports)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and worst <= tol and elapsed <= 300
    line = _report(
        capsys, 1, ok,
        f"worst decrease margin {worst:.3e} <= tol {tol:.3e}, "
        f"{violations}/{len(reports)} violations, {elapsed:.0f} s (budget 300 s)",
    )
    assert ok, line


def test_trained_controllers_restore_frequency(ne39, trained, capsys):
    # The battery keeps only the step component of each scenario's net load;
    # the adaptive controller is evaluated through its constant-feature
    # restriction, the matching model class for pure steps.
    t0 = time.perf_counter()
    bound = 1e-3
    pair = (
        ("adaptive", trained["adaptive"].constant_restriction()),
        ("integral", trained["integral"]),
    )
    battery = []
    for s in make_scenarios(
        ne39, 100, np.random.SeedSequence(777).spawn(2)[0], onset=2.0
    ):
        coeffs = s.basis.coeffs.copy()
        coeffs[:, :-1] = 0.0
        battery.append(Scenario(s.dist, BasisSignal(s.basis.eta, coeffs)))
    worst = {}
    for name, ctrl in pair:
        trajs = rollout_batch(
            ne39, ctrl, battery, horizon=17.0, dt=0.02, record=("omega",)
        )
        worst[name] = max(
            float(np.abs(traj.omega[traj.t >= 15.0 - 1e-9]).max()) for traj in trajs
        )
    # droop cannot remove the offset of a sustained step
    dist = Disturbance(steps=((20, 0.5, 2.0),))
    traj = rollout(
        ne39, trained["droop"], make_constant_basis(ne39.n), dist,
        horizon=17.0, dt=0.02,
    )
    offset = float(np.abs(traj.omega[traj.t >= 15.0 - 1e-9]).mean())
    elapsed = time.perf_counter() - t0
    ok = (
        worst["adaptive"] <= bound
        and worst["integral"] <= bound
        and offset >= 10 * bound
        and elapsed <= 120
    )
    line = _report(
        capsys, 2, ok,
        f"tail max |omega|: adaptive {worst['adaptive']:.2e}, "
        f"integral {worst['integral']:.2e} (bound {bound:g}); "
        f"droop offset {offset:.4f} >= {10 * bound:g}; "
        f"{elapsed:.0f} s (budget 120 s)",
    )
    assert ok, line


def test_adaptive_training_wins_cost_comparison(ne39, trained, capsys):
    t0 = time.perf_counter()
    cost = trained["cost"]
    test_scens = make_scenarios(
        ne39, 50, np.random.SeedSequence(0).spawn(2)[1], onset=0.0
    )
    means = {}
    for kind in ("droop", "integral", "adaptive"):
        trajs = rollout_batch(
            ne39, trained[kind], test_scens, horizon=15.0, dt=0.01, record=("omega", "u")
        )
        means[kind] = (
            float(np.mean([restoration_cost(traj) for traj in trajs])),
            float(np.mean([transient_loss(traj, cost) for traj in trajs])),
        )
    rest_ai = means["adaptive"][0] / means["integral"][0]
    rest_ad = means["adaptive"][0] / means["droop"][0]
    trans_ai = means["adaptive"][1] / means["integral"][1]
    trans_ad = means["adaptive"][1] / means["droop"][1]
    elapsed = time.perf_counter() - t0 + trained["train_seconds"]
    ok = (
        rest_ai <= 0.5 and rest_ad <= 0.15
        and trans_ai <= 1.05 and trans_ad <= 0.6
        and elapsed <= 600
    )
    line = _report(
        capsys, 3, ok,
        f"restoration ratios adaptive/integral {rest_ai:.3f} <= 0.5, "
        f"adaptive/droop {rest_ad:.3f} <= 0.15; transient ratios "
        f"{trans_ai:.3f} <= 1.05, {trans_ad:.3f} <= 0.6; "
        f"{elapsed:.0f} s incl. training (budget 600 s)",
    )
    assert ok, line


def test_backprop_gradients_match_finite_differences(two_bus, ne39, capsys):
    t0 = time.perf_counter()
    errs = {}
    for net, tag in ((two_bus, "two_bus"), (ne39, "ne39")):
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(net.n), 3)
        scens = make_scenarios(net, 40, 11, onset=0.0)
        report = gradient_check(
            net, ctrl, scens, make_cost_spec(net, 0), pairs=50, seed=4
        )
        errs[tag] = report.max_rel_err
    elapsed = time.perf_counter() - t0
    ok = max(errs.values()) <= 1e-4 and elapsed <= 180
    line = _report(
        capsys, 4, ok,
        f"max relative error two_bus {errs['two_bus']:.2e}, "
        f"ne39 {errs['ne39']:.2e} (bound 1e-4), 50 pairs each; "
        f"{elapsed:.0f} s (budget 180 s)",
    )
    assert ok, line


def test_energy_sandwiched_between_quadratics(two_bus, ne39, capsys):
    t0 = time.perf_counter()
    total, violations = 0, 0
    for net in (two_bus, ne39):
        delta_star = solve_equilibrium(net)
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(net.n), 3)
        basis = make_sinusoid_basis(net.n, 9)
        gb = compute_gammas(net, ctrl, margin=0.01, samples=500, rng=5)
        bound = np.pi / 2 - gb.margin
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            delta = rng.uniform(-bound / 2, bound / 2, net.n)
            delta -= delta.mean()
            omega = rng.normal(scale=0.5, size=net.n)
            a_hat = basis.coeffs + rng.normal(scale=0.5, size=basis.coeffs.shape)
            ev = eval_V(net, SystemState(delta, omega, a_hat), basis, ctrl, delta_star)
            x2 = (
                ((delta - delta_star) ** 2).sum()
                + (omega**2).sum()
                + ((a_hat - basis.coeffs) ** 2).sum()
            )
            total += 1
            if not (gb.gamma1 * x2 <= ev.V + 1e-12 <= gb.gamma2 * x2 + 2e-12):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed <= 60
    line = _report(
        capsys, 5, ok,
        f"{violations}/{total} sandwich violations on random in-region states; "
        f"{elapsed:.1f} s (budget 60 s)",
    )
    assert ok, line


def test_constant_feature_adaptive_equals_pi_controller(two_bus, two_bus_eq, capsys):
    t0 = time.perf_counter()
    base = MonotonePWLController.initial(2)
    ctrl = AdaptiveController.initial(base, 1, feature_mode="constant")
    coeffs = np.array([[0.05], [-0.03]])
    basis = make_constant_basis(2, coeffs)
    dist = Disturbance(steps=((0, 0.3, 1.0),))
    dt, horizon = 0.01, 8.0
    traj = rollout(two_bus, ctrl, basis, dist, horizon=horizon, dt=dt)

    # independent PI integrator over (delta, omega, z): u = base(omega) + z,
    # z' = A omega, same RK4 staging and center-of-inertia projection
    rates = ctrl.rates[:, 0]
    net = two_bus

    def derivs(d, w, z, p_extra):
        p = net.p_star + coeffs[:, 0] + p_extra
        u = base.control(w) + z
        return (
            w - w.mean(),
            (p - net.D * w - u - grad_S(net, d)) / net.M,
            rates * w,
        )

    n_steps = round(horizon / dt)
    delta, omega, z = np.array(two_bus_eq), np.zeros(2), np.zeros(2)
    rec_d = np.empty((n_steps + 1, 2))
    rec_w = np.empty((n_steps + 1, 2))
    for k in range(n_steps + 1):
        rec_d[k], rec_w[k] = delta, omega
        if k == n_steps:
            break
        p_extra = dist.injection(2, k * dt, dt)
        h = dt / 2
        k1 = derivs(delta, omega, z, p_extra)
        k2 = derivs(delta + h * k1[0], omega + h * k1[1], z + h * k1[2], p_extra)
        k3 = derivs(delta + h * k2[0], omega + h * k2[1], z + h * k2[2], p_extra)
        k4 = derivs(delta + dt * k3[0], omega + dt * k3[1], z + dt * k3[2], p_extra)
        sixth = dt / 6
        delta = delta + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        omega = omega + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        z = z + sixth * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        delta = delta - delta.mean()

    gap = max(
        float(np.abs(traj.delta - rec_d).max()),
        float(np.abs(traj.omega - rec_w).max()),
    )
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-8 and elapsed <= 60
    line = _report(
        capsys, 6, ok,
        f"adaptive-vs-PI pointwise gap {gap:.2e} <= 1e-8 over {n_steps + 1} "
        f"records; {elapsed:.1f} s (budget 60 s)",
    )
    assert ok, line


def test_equilibrium_residual_and_flow_conservation(two_bus, ne39, capsys):
    t0 = time.perf_counter()
    residual, conservation = 0.0, 0.0
    for net in (two_bus, ne39):
        delta_star = solve_equilibrium(net)
        residual = max(residual, float(np.abs(net.p_star - grad_S(net, delta_star)).max()))
        rng = np.random.default_rng(7)
        deltas = rng.uniform(-np.pi, np.pi, (100_000, net.n))
        conservation = max(
            conservation, float(np.abs(grad_S(net, deltas).sum(axis=-1)).max())
        )
    elapsed = time.perf_counter() - t0
    ok = residual <= 1e-8 and conservation <= 1e-12 and elapsed <= 60
    line = _report(
        capsys, 7, ok,
        f"equilibrium residual {residual:.2e} <= 1e-8; conservation "
        f"{conservation:.2e} <= 1e-12 on 2x100000 angle draws; "
        f"{elapsed:.1f} s (budget 60 s)",
    )
    assert ok, line


def test_integrator_fourth_order_convergence(ne39, capsys):
    t0 = time.perf_counter()
    basis = make_sinusoid_basis(ne39.n, 21)
    ctrl = DroopController.initial(ne39.n)
    finals = {}
    for dt in (0.08, 0.04, 0.02):
        traj = rollout(ne39, ctrl, basis, None, horizon=2.0, dt=dt)
        finals[dt] = np.concatenate([traj.delta[-1], traj.omega[-1]])
    e_coarse = np.linalg.norm(finals[0.08] - finals[0.04])
    e_fine = np.linalg.norm(finals[0.04] - finals[0.02])
    order = float(np.log2(e_coarse / e_fine))
    elapsed = time.perf_counter() - t0
    ok = order >= 3.5 and elapsed <= 60
    line = _report(
        capsys, 8, ok,
        f"Richardson convergence exponent {order:.2f} >= 3.5 "
        f"(refinement errors {e_coarse:.2e} -> {e_fine:.2e}); "
        f"{elapsed:.1f} s (budget 60 s)",
    )
    assert ok, line


def test_adaptive_beats_integral_under_noise(ne39, trained, capsys):
    t0 = time.perf_counter()
    battery = make_scenarios(ne39, 30, 555, onset=0.0, noise_eps=0.03)
    means = {}
    for kind in ("adaptive", "integral"):
        trajs = rollout_batch(
            ne39, trained[kind], battery, horizon=15.0, dt=0.01, record=("omega",)
        )
        means[kind] = float(np.mean([restoration_cost(traj) for traj in trajs]))
    ratio = means["adaptive"] / means["integral"]
    elapsed = time.perf_counter() - t0
    ok = ratio <= 0.7 and elapsed <= 180
    line = _report(
        capsys, 9, ok,
        f"noisy restoration cost adaptive {means['adaptive']:.4f} vs integral "
        f"{means['integral']:.4f}, ratio {ratio:.3f} <= 0.7; "
        f"{elapsed:.0f} s (budget 180 s)",
    )
    assert ok, line
