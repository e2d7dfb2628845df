import numpy as np
import pytest

from swingfreq import lyapunov
from swingfreq.cli import EVAL_ONSET
from swingfreq.controllers import (
    AdaptiveController,
    DroopController,
    LinearController,
    MonotonePWLController,
    SaturatedController,
)
from swingfreq.dynamics import (
    Disturbance,
    Scenario,
    SystemState,
    make_constant_basis,
    make_sinusoid_basis,
    rollout,
    rollout_batch,
)
from swingfreq.lyapunov import (
    CertificationError,
    certify,
    check_decrease,
    compute_gammas,
    estimate_roa,
    eval_V,
    eval_Wp,
    fit_margin_constant,
    series_decrease,
    series_margin_constant,
    stream_energy,
)
from swingfreq.netmodel import Network, coi_project, grad_S, hessian_S, potential_S
from swingfreq.training import make_scenarios


def brute_force_sampled(net, margin, samples, rng):
    """beta1_sampled and beta2_sampled from eigvalsh of every region sample."""
    half = (np.pi / 2 - margin) / 2
    delta = np.random.default_rng(rng).uniform(-half, half, (samples, net.n))
    ev = np.linalg.eigvalsh(hessian_S(net, coi_project(delta)))
    return 0.5 * ev[:, 1].min(), 0.5 * ev[:, -1].max()


class ScriptedGenerator(np.random.Generator):
    """A generator whose `uniform` returns the given arrays in turn."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self._draws = iter(draws)

    def uniform(self, low, high, size):
        out = next(self._draws)
        assert out.shape == size and ((low <= out) & (out <= high)).all()
        return out


def record_eigvalsh(monkeypatch):
    """The stacks later passed to np.linalg.eigvalsh, each as (matrices, n, n)."""
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        stacks.append(np.reshape(a, (-1, *np.shape(a)[-2:])))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return stacks


def zero_injection_two_bus(two_bus):
    return Network(
        name="flat",
        bus_ids=two_bus.bus_ids,
        M=two_bus.M,
        D=two_bus.D,
        p_star=np.zeros(2),
        edges=two_bus.edges,
        b_edge=two_bus.b_edge,
    )


class TestBregman:
    def test_zero_at_base_point(self, two_bus, two_bus_eq):
        assert eval_Wp(two_bus, two_bus_eq, two_bus_eq) == 0.0

    def test_two_bus_value(self, two_bus):
        net = zero_injection_two_bus(two_bus)
        wp = eval_Wp(net, np.array([0.05, -0.05]), np.zeros(2))
        assert wp == pytest.approx(0.004995834722, abs=1e-12)

    def test_agrees_with_potential_form(self, ne39, ne39_eq):
        rng = np.random.default_rng(0)
        for _ in range(50):
            delta = ne39_eq + rng.uniform(-0.05, 0.05, 39)
            delta -= delta.mean()
            direct = (
                potential_S(ne39, delta)
                - potential_S(ne39, ne39_eq)
                - grad_S(ne39, ne39_eq) @ (delta - ne39_eq)
            )
            assert eval_Wp(ne39, delta, ne39_eq) == pytest.approx(direct, abs=1e-12)

    def test_nonnegative_in_region(self, ne39, ne39_eq):
        rng = np.random.default_rng(1)
        deltas = ne39_eq + rng.uniform(-0.1, 0.1, (500, 39))
        deltas -= deltas.mean(axis=-1, keepdims=True)
        assert eval_Wp(ne39, deltas, ne39_eq).min() >= 0.0


class TestEnergy:
    def adaptive(self, n=2, rate=2.0):
        return AdaptiveController.initial(DroopController.initial(n), 3, rate=rate)

    def test_zero_at_equilibrium_with_exact_estimates(self, two_bus, two_bus_eq):
        basis = make_sinusoid_basis(2, 4)
        ctrl = self.adaptive()
        state = SystemState(two_bus_eq, np.zeros(2), basis.coeffs)
        ev = eval_V(two_bus, state, basis, ctrl, two_bus_eq)
        assert ev.V == 0.0

    def test_kinetic_only(self, two_bus, two_bus_eq):
        basis = make_sinusoid_basis(2, 4)
        ctrl = self.adaptive()
        state = SystemState(two_bus_eq, np.full(2, 0.1), basis.coeffs)
        ev = eval_V(two_bus, state, basis, ctrl, two_bus_eq)
        assert ev.kinetic == pytest.approx(0.5 * two_bus.M.sum() * 0.01, rel=1e-12)
        assert ev.V == pytest.approx(ev.kinetic)
        assert ev.Wp == 0.0 and ev.est_err == 0.0

    def test_estimation_term_inverse_rate(self, two_bus, two_bus_eq):
        # unit error on one feature with rate 2 contributes (1/2)/2 = 0.25
        basis = make_sinusoid_basis(2, 4)
        ctrl = self.adaptive(rate=2.0)
        a_hat = np.array(basis.coeffs)
        a_hat[0, 2] += 1.0
        state = SystemState(two_bus_eq, np.zeros(2), a_hat)
        ev = eval_V(two_bus, state, basis, ctrl, two_bus_eq)
        assert ev.est_err == pytest.approx(0.25, rel=1e-9)
        assert ev.V == pytest.approx(0.25, rel=1e-9)

    def test_components_sum_exactly(self, two_bus, two_bus_eq):
        basis = make_sinusoid_basis(2, 6)
        ctrl = self.adaptive()
        rng = np.random.default_rng(2)
        state = SystemState(
            two_bus_eq + np.array([0.05, -0.05]),
            rng.normal(scale=0.1, size=2),
            rng.normal(scale=0.1, size=(2, 3)),
        )
        ev = eval_V(two_bus, state, basis, ctrl, two_bus_eq)
        assert ev.V == ev.kinetic + ev.Wp + ev.est_err

    def test_shape_mismatch_rejected(self, two_bus, two_bus_eq):
        basis = make_sinusoid_basis(2, 4)
        ctrl = self.adaptive()
        state = SystemState(two_bus_eq, np.zeros(2), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            eval_V(two_bus, state, basis, ctrl, two_bus_eq, coeffs_true=np.zeros((2, 2)))

    def test_non_adaptive_has_no_estimation_term(self, two_bus, two_bus_eq):
        state = SystemState(two_bus_eq, np.full(2, 0.1), np.zeros((2, 0)))
        ev = eval_V(two_bus, state, make_constant_basis(2), DroopController.initial(2), two_bus_eq)
        assert ev.est_err == 0.0


class TestGammaBounds:
    def test_two_bus_beta1_closed_form(self, two_bus):
        # region |d1 - d2| <= 1.4: the worst Laplacian weight is cos(1.4) and
        # the 2-bus graph has lambda_2 = 2, so beta1 = cos(1.4)
        margin = np.pi / 2 - 1.4
        gb = compute_gammas(two_bus, margin=margin, samples=200)
        assert gb.beta1 == pytest.approx(0.169967142900, abs=1e-9)

    def test_sampled_bounds_inside_rigorous(self, ne39):
        gb = compute_gammas(ne39, margin=0.01, samples=300)
        assert gb.beta1_sampled >= gb.beta1
        assert gb.beta2_sampled <= gb.beta2 + 1e-12

    @pytest.mark.parametrize("samples", [1, 17, 300, 2000])
    @pytest.mark.parametrize("rng", [0, 1, 2])
    def test_sampled_extremes_match_brute_force(self, ne39, two_bus, samples, rng):
        adaptive = AdaptiveController.initial(DroopController.initial(39), 3)
        for net, ctrl in ((ne39, None), (ne39, adaptive), (two_bus, None)):
            gb = compute_gammas(net, ctrl, margin=0.01, samples=samples, rng=rng)
            expected = brute_force_sampled(net, 0.01, samples, rng)
            assert (gb.beta1_sampled, gb.beta2_sampled) == expected

    def test_only_samples_near_an_extreme_are_eigensolved(self, two_bus, monkeypatch):
        # a two_bus Laplacian at line angle d has the one nonzero eigenvalue
        # 2 b cos d, b = 1; the first chunk sets lo = 2 cos 1.2 and hi = 2 cos 0.3
        eps = 1e-6  # lyapunov._GAMMA_EPS, written out so a changed constant shows
        chunk = lyapunov._GAMMA_CHUNK
        lo, hi = 2 * np.cos(1.2), 2 * np.cos(0.3)
        near = [lo * (1 - eps / 10), lo * (1 + eps / 10), hi * (1 + eps / 10), hi * (1 - eps / 10)]
        far = [lo * (1 + 10 * eps), hi * (1 - 10 * eps)] + [2 * np.cos(0.75)] * (chunk - 6)

        def angles(d):
            return np.stack([d / 2, -d / 2], axis=1)

        draws = [angles(np.linspace(0.3, 1.2, chunk)), angles(np.arccos(np.array(near + far) / 2))]
        stacks = record_eigvalsh(monkeypatch)
        gb = compute_gammas(two_bus, margin=0.01, samples=2 * chunk, rng=ScriptedGenerator(draws))
        # the Laplacian at zero angles, the first chunk in full, then the near samples
        assert [len(a) for a in stacks] == [1, chunk, len(near)]
        assert 2 * stacks[2][:, 0, 0] == pytest.approx(near, rel=1e-12, abs=0)
        assert gb.beta1_sampled == pytest.approx(0.5 * near[0], rel=1e-12, abs=0)
        assert gb.beta2_sampled == pytest.approx(0.5 * near[2], rel=1e-12, abs=0)

    def test_eigensolves_few_of_the_samples(self, ne39, monkeypatch):
        stacks = record_eigvalsh(monkeypatch)
        compute_gammas(ne39, margin=0.01, samples=2000, rng=0)
        # the Laplacian at zero angles and 26 of the samples when written
        assert sum(len(a) for a in stacks) <= 64

    def test_gamma_formula_with_unit_rates(self, two_bus):
        margin = np.pi / 2 - 1.4
        ctrl = AdaptiveController.initial(DroopController.initial(2), 3, rate=1.0)
        gb = compute_gammas(two_bus, ctrl, margin=margin, samples=100)
        # M = 1, rates = 1, so the min is 2*beta1 and the max is the M term
        assert gb.gamma1 == pytest.approx(gb.beta1, rel=1e-12)
        assert gb.gamma2 == pytest.approx(0.5 * max(1.0, 2 * gb.beta2), rel=1e-12)

    def test_gamma_order(self, ne39):
        gb = compute_gammas(ne39, margin=0.01, samples=100)
        assert gb.gamma2 >= gb.gamma1 > 0

    def test_bad_margin_rejected(self, two_bus):
        with pytest.raises(CertificationError):
            compute_gammas(two_bus, margin=0.0)
        with pytest.raises(CertificationError):
            compute_gammas(two_bus, margin=2.0)

    def test_sandwich_on_sampled_states(self, two_bus, two_bus_eq):
        ctrl = AdaptiveController.initial(DroopController.initial(2), 3, rate=2.0)
        basis = make_sinusoid_basis(2, 9)
        gb = compute_gammas(two_bus, ctrl, margin=0.01, samples=500)
        bound = np.pi / 2 - gb.margin
        rng = np.random.default_rng(3)
        for _ in range(2000):
            delta = rng.uniform(-bound / 2, bound / 2, 2)
            delta -= delta.mean()
            omega = rng.normal(scale=0.5, size=2)
            a_hat = basis.coeffs + rng.normal(scale=0.5, size=(2, 3))
            state = SystemState(delta, omega, a_hat)
            ev = eval_V(two_bus, state, basis, ctrl, two_bus_eq)
            x2 = (
                ((delta - two_bus_eq) ** 2).sum()
                + (omega**2).sum()
                + ((a_hat - basis.coeffs) ** 2).sum()
            )
            assert gb.gamma1 * x2 <= ev.V + 1e-12
            assert ev.V <= gb.gamma2 * x2 + 1e-12


class TestDecrease:
    def test_equilibrium_trajectory_flat(self, two_bus, two_bus_eq):
        ctrl = DroopController.initial(2)
        scen = Scenario(Disturbance(), make_constant_basis(2))
        traj = rollout(two_bus, ctrl, scen.basis, horizon=2.0, dt=0.01)
        rep = check_decrease(traj, two_bus, scen, ctrl, two_bus_eq, tol_coeff=1.0)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-9

    def test_adaptive_step_response_decreases(self, two_bus, two_bus_eq):
        ctrl = AdaptiveController.initial(DroopController.initial(2), 3)
        dist = Disturbance(steps=((0, 0.4, 2.0),))
        cal_trajs, cal_scens = [], []
        for seed in (100, 101, 102):
            b = make_sinusoid_basis(2, seed)
            cal_trajs.append(rollout(two_bus, ctrl, b, dist, horizon=6.0, dt=0.01))
            cal_scens.append(Scenario(dist, b))
        fit = fit_margin_constant(cal_trajs, two_bus, cal_scens, ctrl, two_bus_eq)
        assert fit.tol_coeff > 0

        basis = make_sinusoid_basis(2, 200)
        traj = rollout(two_bus, ctrl, basis, dist, horizon=6.0, dt=0.01)
        rep = check_decrease(
            traj, two_bus, Scenario(dist, basis), ctrl, two_bus_eq, tol_coeff=fit.tol_coeff
        )
        assert rep.passed
        assert rep.n_segments == 2
        assert rep.worst_margin <= rep.tol

    def test_destabilizing_controller_flagged(self, two_bus, two_bus_eq):
        ctrl = LinearController(np.array([-1.0, -1.0]))
        dist = Disturbance(steps=((0, 0.3, 1.0),))
        basis = make_constant_basis(2)
        traj = rollout(two_bus, ctrl, basis, dist, horizon=4.0, dt=0.01)
        rep = check_decrease(
            traj, two_bus, Scenario(dist, basis), ctrl, two_bus_eq, tol_coeff=10.0
        )
        assert not rep.passed
        assert rep.worst_margin > rep.tol
        assert rep.worst_time >= 1.0

    def test_noise_rejected(self, two_bus, two_bus_eq):
        ctrl = DroopController.initial(2)
        dist = Disturbance(noise_eps=0.01, seed=5)
        scen = Scenario(dist, make_constant_basis(2))
        traj = rollout(two_bus, ctrl, scen.basis, dist, horizon=1.0, dt=0.01)
        with pytest.raises(ValueError, match="noise"):
            check_decrease(traj, two_bus, scen, ctrl, two_bus_eq, tol_coeff=1.0)

    def test_calibration_needs_enough_records(self, two_bus, two_bus_eq):
        ctrl = DroopController.initial(2)
        scen = Scenario(Disturbance(), make_constant_basis(2))
        traj = rollout(two_bus, ctrl, scen.basis, horizon=0.03, dt=0.01)
        with pytest.raises(CertificationError, match="too short"):
            fit_margin_constant([traj], two_bus, [scen], ctrl, two_bus_eq)

    def test_batch_row_gets_the_rollout_verdict(self, two_bus, two_bus_eq):
        # the step schedule comes from the scenario, so a rollout_batch row,
        # which carries no metadata, is split at the same onset
        ctrl = AdaptiveController.initial(DroopController.initial(2), 3)
        scen = Scenario(Disturbance(steps=((0, 0.4, 2.0),)), make_sinusoid_basis(2, 200))
        lone = rollout(two_bus, ctrl, scen.basis, scen.dist, horizon=6.0, dt=0.01)
        row = rollout_batch(
            two_bus, ctrl, [scen], horizon=6.0, dt=0.01,
            record=("delta", "omega", "a_hat"),
        )[0]
        reports = [
            check_decrease(traj, two_bus, scen, ctrl, two_bus_eq, tol_coeff=1.0)
            for traj in (lone, row)
        ]
        assert reports[0] == reports[1]
        assert reports[0].passed and reports[0].n_segments == 2

    def test_noisy_batch_row_rejected(self, two_bus, two_bus_eq):
        ctrl = DroopController.initial(2)
        scen = Scenario(Disturbance(noise_eps=0.01, seed=5), make_constant_basis(2))
        row = rollout_batch(
            two_bus, ctrl, [scen], horizon=1.0, dt=0.01, record=("delta", "omega")
        )[0]
        with pytest.raises(ValueError, match="noise"):
            check_decrease(row, two_bus, scen, ctrl, two_bus_eq, tol_coeff=1.0)
        with pytest.raises(ValueError, match="noise"):
            fit_margin_constant([row], two_bus, [scen], ctrl, two_bus_eq)


def ne39_adaptive_battery(ne39, ne39_eq):
    ctrl = AdaptiveController.initial(MonotonePWLController.initial(39), 3)
    return ne39, ne39_eq, ctrl, make_scenarios(ne39, 3, 11, onset=EVAL_ONSET)


def two_bus_droop_battery(two_bus, two_bus_eq):
    rng = np.random.default_rng(12)
    scens = [
        Scenario(Disturbance(), make_constant_basis(2), SystemState(
            coi_project(two_bus_eq + rng.uniform(-0.05, 0.05, 2)),
            rng.uniform(-0.05, 0.05, 2), np.zeros((2, 0)),
        ))
        for _ in range(3)
    ]
    return two_bus, two_bus_eq, DroopController.initial(2), scens


def two_onset_battery(two_bus, two_bus_eq):
    # the second row's onset falls inside the first row's middle segment
    ctrl = AdaptiveController.initial(DroopController.initial(2), 3)
    scens = [
        Scenario(Disturbance(steps=((0, 0.3, 1.0), (1, -0.2, 2.0))), make_sinusoid_basis(2, 13)),
        Scenario(Disturbance(steps=((1, 0.25, 1.5),)), make_sinusoid_basis(2, 14)),
    ]
    return two_bus, two_bus_eq, ctrl, scens


@pytest.mark.parametrize("battery", [
    ne39_adaptive_battery, two_bus_droop_battery, two_onset_battery,
])
def test_streamed_terms_match_the_trajectory_oracle(battery, request):
    names = ("ne39", "ne39_eq") if battery is ne39_adaptive_battery else ("two_bus", "two_bus_eq")
    net, eq, ctrl, scens = battery(*map(request.getfixturevalue, names))
    horizon, dt = 3.0, 0.005
    trajs = rollout_batch(
        net, ctrl, scens, horizon=horizon, dt=dt, delta_star=eq,
        record=("delta", "omega", "a_hat"),
    )
    fit = fit_margin_constant(trajs, net, scens, ctrl, eq)
    oracle = [
        check_decrease(traj, net, s, ctrl, eq, tol_coeff=fit.tol_coeff)
        for traj, s in zip(trajs, scens)
    ]

    series = stream_energy(net, ctrl, scens, eq, horizon=horizon, dt=dt)
    streamed_fit = series_margin_constant(series, range(len(scens)))
    streamed = [
        series_decrease(series, b, tol_coeff=fit.tol_coeff) for b in range(len(scens))
    ]

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(b))

    assert close(streamed_fit.tol_coeff, fit.tol_coeff)
    for got, want in zip(streamed, oracle, strict=True):
        assert close(got.worst_margin, want.worst_margin)
        assert close(got.tol, want.tol)
        assert got.worst_time == want.worst_time
        assert got.n_segments == want.n_segments
        assert got.passed == want.passed
    assert [r.n_segments for r in oracle] == [
        1 + len(s.dist.onset_indices(dt, round(horizon / dt))) for s in scens
    ]


class TestRoa:
    def test_equilibrium_inside(self, two_bus, two_bus_eq):
        gb = compute_gammas(two_bus, margin=0.01, samples=100)
        roa = estimate_roa(two_bus, gb, two_bus_eq)
        assert roa.valid and roa.rho > 0
        state = SystemState(two_bus_eq, np.zeros(2), np.zeros((2, 0)))
        assert roa.contains(state, two_bus_eq)

    def test_boundary_state_outside(self, two_bus, two_bus_eq):
        gb = compute_gammas(two_bus, margin=0.01, samples=100)
        roa = estimate_roa(two_bus, gb, two_bus_eq)
        big = np.sqrt(roa.rho / roa.gamma2) + 0.1
        state = SystemState(two_bus_eq, np.array([big, 0.0]), np.zeros((2, 0)))
        assert not roa.contains(state, two_bus_eq)

    def test_rho_below_boundary_minimum(self, two_bus, two_bus_eq):
        gb = compute_gammas(two_bus, margin=0.01, samples=100)
        roa = estimate_roa(two_bus, gb, two_bus_eq)
        assert roa.rho < gb.gamma1 * roa.r**2

    def test_adaptive_membership_needs_truth(self, two_bus, two_bus_eq):
        gb = compute_gammas(two_bus, margin=0.01, samples=50)
        roa = estimate_roa(two_bus, gb, two_bus_eq)
        state = SystemState(two_bus_eq, np.zeros(2), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="coeffs_true"):
            roa.contains(state, two_bus_eq)

    def test_in_set_states_converge(self, two_bus, two_bus_eq):
        # Q_rho membership should imply frequency restoration by t = 30 s
        ctrl = DroopController.initial(2)
        gb = compute_gammas(two_bus, margin=0.01, samples=100)
        roa = estimate_roa(two_bus, gb, two_bus_eq)
        rng = np.random.default_rng(8)
        tested = 0
        while tested < 5:
            x0 = SystemState(
                (lambda d: d - d.mean())(two_bus_eq + rng.uniform(-0.3, 0.3, 2)),
                rng.uniform(-0.3, 0.3, 2),
                np.zeros((2, 0)),
            )
            if not roa.contains(x0, two_bus_eq):
                continue
            tested += 1
            traj = rollout(two_bus, ctrl, make_constant_basis(2), horizon=30.0, dt=0.01, x0=x0)
            assert np.abs(traj.omega[-1]).max() <= 1e-4


CERTIFY_ARGS = dict(
    scenarios=3, calibration=2, seed=0, horizon=2.0, dt=0.01, margin=0.01, samples=50
)


def test_certify_passes_through(two_bus, two_bus_eq):
    gb = compute_gammas(two_bus, margin=0.01, samples=50)
    roa = estimate_roa(two_bus, gb, two_bus_eq)
    doc, failures = certify(two_bus, DroopController.initial(2), two_bus_eq, **CERTIFY_ARGS)
    assert doc["pass"] is True and failures == []
    assert doc["gamma1"] == gb.gamma1
    assert doc["worst_margin"] == max(doc["worst_by_trajectory"])
    assert doc["roa"] == {"r": roa.r, "rho": roa.rho, "valid": roa.valid}
    assert doc["beta1_sampled"] >= doc["beta1"]


def test_certify_refuses_saturated_controllers(two_bus, two_bus_eq):
    ctrl = SaturatedController(DroopController.initial(2), 0.1)
    with pytest.raises(CertificationError, match="saturated") as exc:
        certify(two_bus, ctrl, two_bus_eq, **CERTIFY_ARGS)
    assert exc.value.verdict == "refused"
