import json
import tracemalloc

import numpy as np
import pytest

from swingfreq.controllers import (
    AdaptiveController,
    DroopController,
    LinearController,
    MonotonePWLController,
    SaturatedController,
)
from swingfreq.dynamics import (
    DT_REF,
    FORCING_ROWS,
    RECORDS,
    SUBSTAGES,
    BasisSignal,
    Disturbance,
    IntegrationError,
    Scenario,
    ScenarioStack,
    SystemState,
    Trajectory,
    _CSV_BLOCK,
    _forcing_rows,
    _integrate,
    make_constant_basis,
    make_sinusoid_basis,
    rollout,
    rollout_batch,
    step,
)
from swingfreq.netmodel import Network, coi_project, grad_S


def one_bus_net():
    # single machine, no network: M w' = p - D w - u
    return Network(
        name="one",
        bus_ids=(1,),
        M=np.array([1.0]),
        D=np.array([1.0]),
        p_star=np.array([0.0]),
        edges=(),
        b_edge=np.zeros(0),
    )


class TestBasisSignal:
    def test_sinusoid_layout(self):
        basis = make_sinusoid_basis(5, 123)
        assert basis.n_features == 3
        assert np.all(basis.eta >= 0.005 * np.pi) and np.all(basis.eta <= 0.02 * np.pi)
        assert np.all(basis.coeffs >= 0.1) and np.all(basis.coeffs <= 0.2)

    def test_constant_feature_is_one_everywhere(self):
        basis = make_sinusoid_basis(3, 1)
        for t in (0.0, 0.37, 12.0):
            np.testing.assert_array_equal(basis.features(t)[:, -1], np.ones(3))

    def test_sinusoids_start_at_zero(self):
        basis = make_sinusoid_basis(3, 1)
        np.testing.assert_array_equal(basis.features(0.0)[:, :2], np.zeros((3, 2)))

    def test_feature_index_is_time_over_dt_ref(self):
        basis = make_sinusoid_basis(2, 5)
        t = 0.73
        expected = np.sin(t / DT_REF * basis.eta)
        np.testing.assert_allclose(basis.features(t)[:, :2], expected, atol=1e-15)

    def test_injection_variation_dot_product(self):
        basis = make_sinusoid_basis(4, 9)
        t = 1.1
        manual = (basis.features(t) * basis.coeffs).sum(axis=-1)
        np.testing.assert_allclose(basis.injection_variation(t), manual, atol=1e-15)

    def test_constant_basis(self):
        basis = make_constant_basis(3, np.array([0.1, 0.2, 0.3]))
        assert basis.n_features == 1
        np.testing.assert_allclose(basis.injection_variation(7.7), [0.1, 0.2, 0.3])

    def test_stacked_rows_match_each_basis(self):
        bases = [make_sinusoid_basis(4, seed) for seed in (1, 2, 3)]
        stacked = BasisSignal(
            np.stack([b.eta for b in bases]), np.stack([b.coeffs for b in bases])
        )
        assert (stacked.n, stacked.n_features) == (4, 3)
        times = np.array([0.0, 0.37, 0.005, 12.0])
        for t in (*times, times):
            got, var = stacked.features(t), stacked.injection_variation(t)
            for b, basis in enumerate(bases):
                np.testing.assert_array_equal(got[..., b, :, :], basis.features(t))
                np.testing.assert_array_equal(var[..., b, :], basis.injection_variation(t))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="one more column"):
            BasisSignal(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="one more column"):
            BasisSignal(np.zeros((3, 2, 2)), np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="2-d"):
            BasisSignal(np.zeros((3, 2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            BasisSignal(np.zeros((1, 0)), np.array([[np.nan]]))


class TestDisturbance:
    def test_step_activation_by_index(self):
        dist = Disturbance(steps=((1, 0.5, 2.0),))
        assert dist.injection(3, 1.99, 0.01)[1] == 0.0
        assert dist.injection(3, 2.0, 0.01)[1] == 0.5
        assert dist.injection(3, 10.0, 0.01)[1] == 0.5

    def test_onset_indices(self):
        dist = Disturbance(steps=((0, 0.1, 2.0), (1, 0.2, 2.0), (2, 0.3, 0.0)))
        assert dist.onset_indices(0.01, 400) == [200]

    def test_magnitude_cap(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            Disturbance(steps=((0, 1.5, 0.0),))
        Disturbance(steps=((0, 1.5, 0.0),), mag_cap=2.0)

    def test_negative_onset_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Disturbance(steps=((0, 0.1, -1.0),))

    def test_bad_bus_index(self):
        dist = Disturbance(steps=((5, 0.1, 0.0),))
        with pytest.raises(ValueError, match="out of range"):
            dist.injection(3, 0.0, 0.01)


def at_rest(delta_star, n_features=0):
    """The equilibrium angles with zero deviation and zero estimates."""
    n = delta_star.shape[0]
    return SystemState(delta_star, np.zeros(n), np.zeros((n, n_features)))


class TestStep:
    def test_equilibrium_is_fixed_point(self, two_bus, two_bus_eq):
        ctrl = DroopController.initial(2)
        state = at_rest(two_bus_eq)
        basis = make_constant_basis(2)
        nxt = step(two_bus, state, ctrl, basis, dt=0.01)
        assert np.abs(nxt.delta - state.delta).max() <= 1e-12
        assert np.abs(nxt.omega).max() <= 1e-12

    def test_single_machine_euler_value(self):
        net = one_bus_net()
        ctrl = LinearController(np.array([0.0]))
        state = SystemState(np.zeros(1), np.zeros(1), np.zeros((1, 0)))
        dist = Disturbance(steps=((0, 0.1, 0.0),))
        nxt = step(net, state, ctrl, make_constant_basis(1), dist, t=0.0, dt=0.01, method="euler")
        assert nxt.omega[0] == pytest.approx(0.001, abs=1e-15)
        # RK4 lands within O(dt^2) of the hand Euler value
        nxt4 = step(net, state, ctrl, make_constant_basis(1), dist, t=0.0, dt=0.01)
        assert nxt4.omega[0] == pytest.approx(0.001, abs=1e-5)
        assert nxt4.delta[0] == 0.0

    def test_antisymmetric_orbit_stays_antisymmetric(self, two_bus, two_bus_eq):
        ctrl = DroopController.initial(2)
        state = SystemState(two_bus_eq, np.array([0.12, -0.12]), np.zeros((2, 0)))
        basis = make_constant_basis(2)
        for k in range(200):
            state = step(two_bus, state, ctrl, basis, t=k * 0.01, dt=0.01)
            assert abs(state.omega[0] + state.omega[1]) <= 1e-14
            assert abs(state.delta[0] + state.delta[1]) <= 1e-14

    def test_divergence_raises_without_warnings(self, two_bus, two_bus_eq):
        # the overflow on the way is the divergence: one IntegrationError, no
        # RuntimeWarning (which the test configuration turns into errors)
        ctrl = LinearController(np.full(2, -1e300))
        state = SystemState(two_bus_eq, np.array([0.1, -0.1]), np.zeros((2, 0)))
        with pytest.raises(IntegrationError, match="non-finite state at step 1"):
            step(two_bus, state, ctrl, make_constant_basis(2), dt=0.01)

    def test_unknown_method(self, two_bus, two_bus_eq):
        ctrl = DroopController.initial(2)
        state = at_rest(two_bus_eq)
        with pytest.raises(ValueError, match="unknown integration method"):
            step(two_bus, state, ctrl, make_constant_basis(2), method="verlet")


class TestRollout:
    def test_record_count(self, two_bus):
        traj = rollout(two_bus, DroopController.initial(2), make_constant_basis(2), horizon=4.0, dt=0.01)
        assert traj.n_records == 401
        assert traj.t[-1] == pytest.approx(4.0)
        for arr in (traj.delta, traj.omega, traj.u, traj.p):
            assert arr.shape == (401, 2)

    def test_zero_disturbance_stays_at_equilibrium(self, two_bus):
        traj = rollout(two_bus, DroopController.initial(2), make_constant_basis(2), horizon=4.0, dt=0.01)
        assert np.abs(traj.omega).max() <= 1e-10

    def test_same_seed_bit_identical(self, two_bus):
        basis = make_sinusoid_basis(2, 3)
        dist = Disturbance(steps=((0, 0.4, 1.0),), noise_eps=0.02, seed=99)
        a = rollout(two_bus, DroopController.initial(2), basis, dist, horizon=3.0, dt=0.01)
        b = rollout(two_bus, DroopController.initial(2), basis, dist, horizon=3.0, dt=0.01)
        np.testing.assert_array_equal(a.omega, b.omega)
        np.testing.assert_array_equal(a.delta, b.delta)
        np.testing.assert_array_equal(a.p, b.p)

    def test_coi_gauge_held(self, ne39):
        basis = make_sinusoid_basis(39, 4)
        dist = Disturbance(steps=((10, 0.5, 1.0),))
        traj = rollout(ne39, DroopController.initial(39), basis, dist, horizon=10.0, dt=0.01)
        assert np.abs(traj.delta.sum(axis=1)).max() <= 1e-9

    def test_bounded_and_settling_with_monotone_base(self, two_bus):
        # constant net load step: a monotone base keeps the response stable
        ctrl = MonotonePWLController.initial(2)
        dist = Disturbance(steps=((0, 0.3, 0.0),))
        traj = rollout(two_bus, ctrl, make_constant_basis(2), dist, horizon=20.0, dt=0.01)
        peak = np.abs(traj.omega).max()
        assert np.isfinite(peak)
        assert np.abs(traj.omega[-1]).max() < peak

    def test_blowup_reports_step_index(self, two_bus):
        # anti-damping pushes the Euler iteration to overflow
        ctrl = LinearController(np.array([-300.0, -300.0]))
        dist = Disturbance(steps=((0, 0.5, 0.0),))
        with pytest.raises(IntegrationError, match=r"step \d+"):
            rollout(two_bus, ctrl, make_constant_basis(2), dist, horizon=8.0, dt=0.01, method="euler")

    def test_horizon_must_divide(self, two_bus):
        with pytest.raises(ValueError, match="integer multiple"):
            rollout(two_bus, DroopController.initial(2), make_constant_basis(2), horizon=1.005, dt=0.01)

    def test_adaptive_estimates_recorded(self, two_bus):
        ctrl = AdaptiveController.initial(DroopController.initial(2), 3)
        basis = make_sinusoid_basis(2, 8)
        dist = Disturbance(steps=((0, 0.3, 0.0),))
        traj = rollout(two_bus, ctrl, basis, dist, horizon=2.0, dt=0.01)
        assert traj.a_hat.shape == (201, 2, 3)
        np.testing.assert_array_equal(traj.a_hat[0], np.zeros((2, 3)))
        assert np.abs(traj.a_hat[-1]).max() > 0

    def test_rk4_refinement_order(self, two_bus):
        # Richardson refinement on a smooth scenario: halving dt should cut
        # the one-shot error by ~2^4
        basis = make_sinusoid_basis(2, 21)
        dist = Disturbance(steps=((0, 0.4, 0.0),))
        ctrl = DroopController.initial(2)
        finals = {}
        for dt in (0.02, 0.01, 0.005):
            traj = rollout(two_bus, ctrl, basis, dist, horizon=2.0, dt=dt)
            finals[dt] = np.concatenate([traj.delta[-1], traj.omega[-1]])
        e1 = np.linalg.norm(finals[0.02] - finals[0.01])
        e2 = np.linalg.norm(finals[0.01] - finals[0.005])
        assert np.log2(e1 / e2) >= 3.5

    def test_matches_independent_integrator(self, two_bus, two_bus_eq):
        # cross-check against an adaptive-step ODE solver; the per-step COI
        # projection is a no-op for the exact flow (mean delta is conserved),
        # so the raw ODE solution is directly comparable
        from scipy.integrate import solve_ivp

        ctrl = AdaptiveController.initial(DroopController.initial(2), 3)
        basis = make_sinusoid_basis(2, 4)
        traj = rollout(two_bus, ctrl, basis, None, horizon=2.0, dt=0.01)

        def rhs(t, y):
            delta, omega, a_hat = y[:2], y[2:4], y[4:].reshape(2, 3)
            phi = basis.features(t)
            p = two_bus.p_star + (phi * basis.coeffs).sum(axis=-1)
            u = ctrl.control(omega, phi.T, a_hat.T)  # the hooks are feature-first
            d_omega = (p - two_bus.D * omega - u - grad_S(two_bus, delta)) / two_bus.M
            return np.concatenate([
                omega - omega.mean(), d_omega, ctrl.adaptation(omega, phi.T).T.ravel(),
            ])

        y0 = np.concatenate([two_bus_eq, np.zeros(2), np.zeros(6)])
        sol = solve_ivp(
            rhs, (0.0, 2.0), y0, method="RK45", rtol=1e-11, atol=1e-12,
            t_eval=[2.0],
        )
        ref = sol.y[:, -1]
        np.testing.assert_allclose(traj.delta[-1], ref[:2], atol=1e-7)
        np.testing.assert_allclose(traj.omega[-1], ref[2:4], atol=1e-7)
        np.testing.assert_allclose(traj.a_hat[-1].ravel(), ref[4:], atol=1e-7)


class TestRolloutBatch:
    @staticmethod
    def battery(net, delta_star, n_features=3):
        """Noise, a mid-horizon onset, two onsets in one scenario, and an explicit x0."""
        rng = np.random.default_rng(2)
        x0 = SystemState(
            delta_star + 0.01 * rng.standard_normal(net.n),
            0.02 * rng.standard_normal(net.n),
            0.05 * rng.standard_normal((net.n, n_features)),
        )
        return [
            Scenario(Disturbance(steps=((30, -0.8, 0.0), (9, 0.5, 0.3))),
                     make_sinusoid_basis(net.n, 2)),
            Scenario(Disturbance(steps=((4, 0.6, 0.5),), noise_eps=0.03, seed=17),
                     make_sinusoid_basis(net.n, 1)),
            Scenario(Disturbance(steps=((12, 0.4, 0.5),)), make_sinusoid_basis(net.n, 3), x0),
        ]

    def test_rollout_matches_stepping(self, ne39, ne39_eq):
        # `step` draws its own injections and noise, so this pins the stacked
        # step schedule, noise stream and initial states against them
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(ne39.n), 3)
        for s in self.battery(ne39, ne39_eq):
            traj = rollout(ne39, ctrl, s.basis, s.dist, horizon=1.0, x0=s.x0)
            state = s.x0 or at_rest(ne39_eq, ctrl.n_features)
            rng = np.random.default_rng(s.dist.seed)
            for k in range(100):
                np.testing.assert_allclose(traj.omega[k], state.omega, rtol=0, atol=1e-12)
                state = step(ne39, state, ctrl, s.basis, s.dist, t=k * 0.01, rng=rng)
            np.testing.assert_allclose(traj.omega[-1], state.omega, rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.a_hat[-1], state.a_hat, rtol=0, atol=1e-12)

    def test_injection_stream_matches_lone_draws(self, ne39, ne39_eq):
        # each row is the scenario's own step injection plus its own noise
        # stream, drawn per step
        scens = self.battery(ne39, ne39_eq)
        dt, n_steps = 0.01, 150
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(ne39.n), 3)
        stack = ScenarioStack(ne39, ctrl, scens, n_steps * dt, dt, "rk4", ne39_eq)
        for _ in range(2):  # every call restarts the streams
            rngs = [np.random.default_rng(s.dist.seed) for s in scens]
            for k, got in zip(range(n_steps + 1), stack.injections()):
                for b, s in enumerate(scens):
                    want = s.dist.injection(ne39.n, k * dt, dt)
                    if s.dist.noise_eps:
                        eps = s.dist.noise_eps
                        want = want + rngs[b].uniform(-eps, eps, ne39.n)
                    np.testing.assert_array_equal(got[b], want)

    def test_rows_match_lone_rollouts(self, ne39, ne39_eq):
        # batch rows may differ from a lone rollout only by the rounding of
        # the batched network product
        n = ne39.n
        pwl = MonotonePWLController.initial(n).with_raw_parameters(
            np.random.default_rng(0).normal(size=n * 20)
        )
        controllers = [
            DroopController.initial(n),
            pwl,
            AdaptiveController.initial(pwl, 3),
            SaturatedController(AdaptiveController.initial(pwl, 3), 0.2),
        ]
        for ctrl in controllers:
            scens = self.battery(ne39, ne39_eq, ctrl.n_features)
            for method in ("rk4", "euler"):
                trajs = rollout_batch(
                    ne39, ctrl, scens, horizon=1.0, dt=0.01, method=method,
                    delta_star=ne39_eq,
                )
                assert len(trajs) == len(scens)
                for s, got in zip(scens, trajs):
                    ref = rollout(ne39, ctrl, s.basis, s.dist, horizon=1.0, dt=0.01,
                                  x0=s.x0, method=method)
                    np.testing.assert_allclose(got.omega, ref.omega, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got.u, ref.u, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got.delta, ref.delta, rtol=0, atol=1e-12)

    def test_fixed_battery_is_reproducible(self, ne39, ne39_eq):
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(ne39.n), 3)
        scens = self.battery(ne39, ne39_eq)
        a = rollout_batch(ne39, ctrl, scens, horizon=0.5, dt=0.01)
        b = rollout_batch(ne39, ctrl, scens, horizon=0.5, dt=0.01)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.omega, tb.omega)
            np.testing.assert_array_equal(ta.u, tb.u)

    def test_records_only_requested_histories(self, two_bus):
        scens = [Scenario(Disturbance(steps=((0, 0.3, 0.5),)), make_sinusoid_basis(2, 1))] * 2
        trajs = rollout_batch(two_bus, DroopController.initial(2), scens, horizon=1.0,
                              record=("omega", "u"))
        for traj in trajs:
            assert traj.delta is None and traj.p is None and traj.a_hat is None
            assert traj.omega.shape == traj.u.shape == (101, 2)
            tail = traj.tail(0.5)
            assert tail.n_records == 51 and tail.delta is None
        with pytest.raises(ValueError, match="record"):
            rollout_batch(two_bus, DroopController.initial(2), scens, horizon=1.0,
                          record=("u",))

    def test_unknown_method(self, two_bus):
        scens = [Scenario(Disturbance(), make_constant_basis(2))]
        with pytest.raises(ValueError, match="unknown integration method 'verlet'"):
            rollout_batch(two_bus, DroopController.initial(2), scens, horizon=1.0,
                          method="verlet")

    def test_divergence_names_scenario_and_step(self, two_bus):
        ctrl = LinearController(np.array([-300.0, -300.0]))
        quiet = Scenario(Disturbance(), make_constant_basis(2))
        kicked = Scenario(Disturbance(steps=((0, 0.5, 0.0),)), make_constant_basis(2))
        with pytest.raises(IntegrationError, match=r"step (\d+)") as lone:
            rollout(two_bus, ctrl, kicked.basis, kicked.dist, horizon=8.0, method="euler")
        k = lone.value.args[0].split("step ")[1].split()[0]
        with pytest.raises(IntegrationError, match=rf"in scenario 1 at step {k} "):
            rollout_batch(two_bus, ctrl, [quiet, kicked], horizon=8.0, method="euler")


class TestSharedBatch:
    """Several controllers on one battery as one (C, B, n) batch."""

    @staticmethod
    def check_rows(net, delta_star, ctrls, scens, method, horizon=3.0):
        stack = ScenarioStack(net, ctrls, scens, horizon, 0.01, method, delta_star)
        assert stack.C == len(ctrls)
        hist = _integrate(stack, ("omega", "u", "a_hat"))
        for c, ctrl in enumerate(ctrls):
            alone = rollout_batch(net, ctrl, scens, horizon=horizon, dt=0.01,
                                  method=method, delta_star=delta_star)
            l = ctrl.n_features
            for b, traj in enumerate(alone):
                assert np.array_equal(hist["omega"][:, c, b], traj.omega)
                assert np.array_equal(hist["u"][:, c, b], traj.u)
                assert np.array_equal(hist["a_hat"][:, c, b, :, :l], traj.a_hat)
                assert not hist["a_hat"][:, c, b, :, l:].any()

    @pytest.mark.parametrize("method, noise", [("rk4", 0.0), ("euler", 0.0), ("rk4", 0.05)])
    def test_rows_equal_each_controller_alone(self, ne39, ne39_eq, method, noise):
        n = ne39.n
        ctrls = [
            DroopController.initial(n),
            AdaptiveController.initial(MonotonePWLController.initial(n), 1,
                                       feature_mode="constant"),
            AdaptiveController.initial(MonotonePWLController.initial(n), 3),
        ]
        scens = [
            Scenario(Disturbance(steps=((b + 3, 0.6 - b, 0.5),), noise_eps=noise, seed=b),
                     make_sinusoid_basis(n, b))
            for b in range(2)
        ]
        self.check_rows(ne39, ne39_eq, ctrls, scens, method)

    def test_initial_estimates_fill_each_controller(self, ne39, ne39_eq):
        pwl = MonotonePWLController.initial(ne39.n)
        ctrls = [AdaptiveController.initial(pwl, 3),
                 SaturatedController(AdaptiveController.initial(pwl, 3, rate=0.5), 0.2)]
        scens = TestRolloutBatch.battery(ne39, ne39_eq)
        self.check_rows(ne39, ne39_eq, ctrls, scens, "rk4", horizon=1.0)

    def test_divergence_names_controller_scenario_and_step(self, two_bus):
        lin = LinearController(np.array([-300.0, -300.0]))
        quiet = Scenario(Disturbance(), make_constant_basis(2))
        kicked = Scenario(Disturbance(steps=((0, 0.5, 0.0),)), make_constant_basis(2))
        with pytest.raises(IntegrationError) as lone:
            rollout_batch(two_bus, lin, [quiet, kicked], horizon=8.0, method="euler")
        k = lone.value.step
        stack = ScenarioStack(two_bus, [DroopController.initial(2), lin, lin],
                              [quiet, kicked], 8.0, 0.01, "euler")
        with pytest.raises(IntegrationError,
                           match=rf"in scenario 1 of controller 1 at step {k} ") as shared:
            _integrate(stack, ())
        err = shared.value
        assert (err.controller, err.row, err.step) == (1, 1, k)
        assert lone.value.controller is None

    def test_empty_controller_sequence(self, two_bus):
        scens = [Scenario(Disturbance(), make_constant_basis(2))]
        with pytest.raises(ValueError, match="no controller to integrate"):
            ScenarioStack(two_bus, [], scens, 1.0, 0.01, "rk4")


class TestStackRefusals:
    @staticmethod
    def build(net, scens, horizon=1.0, dt=0.01):
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(net.n), 3)
        return ScenarioStack(net, ctrl, scens, horizon, dt, "rk4")

    def test_empty_battery(self, two_bus):
        with pytest.raises(ValueError, match="empty scenario batch"):
            self.build(two_bus, [])

    def test_basis_of_another_network(self, two_bus):
        scens = [Scenario(Disturbance(), make_sinusoid_basis(3, 0))]
        with pytest.raises(ValueError, match="scenario basis does not match the network"):
            self.build(two_bus, scens)

    def test_estimates_that_do_not_fit_the_controller(self, two_bus, two_bus_eq):
        x0 = SystemState(two_bus_eq, np.zeros(2), np.zeros((2, 1)))
        scens = [Scenario(Disturbance(), make_sinusoid_basis(2, 0), x0)]
        with pytest.raises(ValueError, match="initial estimates do not fit the controller"):
            self.build(two_bus, scens)

    def test_horizon_off_the_step_grid(self, two_bus):
        scens = [Scenario(Disturbance(), make_sinusoid_basis(2, 0))]
        with pytest.raises(ValueError, match="horizon 0.015 is not an integer multiple of dt 0.01"):
            self.build(two_bus, scens, horizon=0.015)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_eps must be nonnegative"):
            Disturbance(noise_eps=-1)


def reference_integrate(stack):
    """The integrator on separate delta, omega and estimate arrays, with every
    stage sum, the RK4 combination and the COI projection in the order of
    the unpacked core: the oracle of the packed state's bit-identity.

    Returns the records of `_integrate` as lists: delta, omega, u, p and the
    feature-first estimates a_hat, (L, [C,] B, n).
    """
    net, ctrl, dt = stack.net, stack.controller, stack.dt
    members = ctrl if stack.C is not None else None

    def derivs(d, w, a, p, phi):
        if members is None:
            l = ctrl.n_features
            view = ctrl.select_features(phi) if l else None
            u = ctrl.control(w, view, a if l else None)
            d_a = ctrl.adaptation(w, view) if l else None
        else:
            u = np.empty(w.shape)
            d_a = np.zeros(a.shape) if a.shape[0] else None
            for c, m in enumerate(members):
                l = m.n_features
                if l:
                    view = m.select_features(phi)
                    u[c] = m.control(w[c], view, a[:l, c])
                    d_a[:l, c] = m.adaptation(w[c], view)
                else:
                    u[c] = m.control(w[c])
        d_omega = (p - net.D * w - u - grad_S(net, d)) / net.M
        return coi_project(w), d_omega, d_a, u

    def stage(a, h, d_a):
        return a if d_a is None else a + h * d_a

    out = {name: [] for name in RECORDS}
    rows = _forcing_rows(stack)
    row = next(rows)
    d, w, a = (np.array(x) for x in (stack.x0[0], stack.x0[1], stack.x0[2:]))
    for k, p_extra in enumerate(stack.injections()):
        p = row[0] + p_extra
        k1 = derivs(d, w, a, p, row[1])
        for name, x in zip(RECORDS, (d, w, k1[3], np.broadcast_to(p, d.shape), a)):
            out[name].append(x.copy())
        if k == stack.n_steps:
            return out
        if stack.method == "euler":
            row = next(rows)
            nd, nw, na = d + dt * k1[0], w + dt * k1[1], stage(a, dt, k1[2])
        else:
            mid, row = next(rows), next(rows)
            h = dt / 2
            p_mid = mid[0] + p_extra
            k2 = derivs(d + h * k1[0], w + h * k1[1], stage(a, h, k1[2]), p_mid, mid[1])
            k3 = derivs(d + h * k2[0], w + h * k2[1], stage(a, h, k2[2]), p_mid, mid[1])
            k4 = derivs(d + dt * k3[0], w + dt * k3[1], stage(a, dt, k3[2]),
                        row[0] + p_extra, row[1])
            sixth = dt / 6
            nd = d + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            nw = w + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            na = a if k1[2] is None else a + sixth * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        d, w, a = coi_project(nd), nw, na


class TestPackedState:
    """The packed state (2 + L, [C,] B, n) gives the unpacked core's bits."""

    @staticmethod
    def controllers(n):
        pwl = MonotonePWLController.initial(n).with_raw_parameters(
            np.random.default_rng(0).normal(size=n * 20)
        )
        return {
            "droop": DroopController.initial(n),
            "pwl": pwl,
            "integral": AdaptiveController.initial(pwl, 1, feature_mode="constant"),
            "adaptive": AdaptiveController.initial(pwl, 3),
        }

    @staticmethod
    def check(stack):
        want = reference_integrate(stack)
        x0 = stack.x0.copy()
        hist = _integrate(stack, RECORDS)
        for name in RECORDS:
            ref = np.stack(want[name])
            if name == "a_hat":  # recorded bus-major, (K+1, [C,] B, n, L)
                ref = np.moveaxis(ref, 1, -1)
            assert np.array_equal(hist[name], ref), name
        seen = []
        _integrate(stack, (), lambda k, x, u: seen.append((k, x.copy(), u.copy())))
        assert [k for k, _, _ in seen] == list(range(stack.n_steps + 1))
        for k, x, u in seen:
            assert np.array_equal(x[0], want["delta"][k])
            assert np.array_equal(x[1], want["omega"][k])
            assert np.array_equal(x[2:], want["a_hat"][k])
            assert np.array_equal(u, want["u"][k])
        assert np.array_equal(stack.x0, x0)  # the stack's initial state is not advanced

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("kind", ["droop", "pwl", "integral", "adaptive"])
    def test_one_controller(self, ne39, ne39_eq, kind, method):
        ctrl = self.controllers(ne39.n)[kind]
        scens = TestRolloutBatch.battery(ne39, ne39_eq, ctrl.n_features)
        self.check(ScenarioStack(ne39, ctrl, scens, 1.0, 0.01, method, ne39_eq))

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    def test_mixed_bank(self, ne39, ne39_eq, method):
        ctrls = list(self.controllers(ne39.n).values())
        scens = TestRolloutBatch.battery(ne39, ne39_eq, 0)
        stack = ScenarioStack(ne39, ctrls, scens, 1.0, 0.01, method, ne39_eq)
        assert stack.x0.shape == (5, 4, 3, ne39.n)
        self.check(stack)


class TestForcingStream:
    @staticmethod
    def stack(net, delta_star, dt, n_steps, bases, method, ctrl=None):
        scens = [Scenario(Disturbance(), b) for b in bases]
        if ctrl is None:
            ctrl = AdaptiveController.initial(MonotonePWLController.initial(net.n), 3)
        return ScenarioStack(net, ctrl, scens, n_steps * dt, dt, method, delta_star)

    @pytest.mark.parametrize(
        "method, dt", [("euler", 0.01), ("rk4", 0.01), ("rk4", 0.005)]
    )
    def test_rows_match_features(self, ne39, ne39_eq, method, dt):
        # RK4 rows sit at half steps: half basis indices at dt 0.01, quarter
        # indices at dt 0.005; the horizon ends in a partial block
        sub = SUBSTAGES[method]
        n_steps = (3 * FORCING_ROWS + 7) // sub
        bases = [make_sinusoid_basis(ne39.n, seed) for seed in range(3)]
        stack = self.stack(ne39, ne39_eq, dt, n_steps, bases, method)
        n_rows = n_steps * sub + 1
        assert n_rows % FORCING_ROWS and n_rows > 3 * FORCING_ROWS
        got = np.concatenate(
            [stack.forcing(block).copy() for block in range(-(-n_rows // FORCING_ROWS))]
        )
        assert got.shape[0] == n_rows
        want = stack.basis.features(np.arange(n_rows) * (dt / sub))
        # blocks are feature-first, (rows, m + 1, B, n)
        np.testing.assert_allclose(got, np.moveaxis(want, -1, 1), rtol=0, atol=1e-14)

    def test_constant_basis_rows(self, ne39, ne39_eq):
        bases = [make_constant_basis(ne39.n, np.full(ne39.n, 0.1 * (b + 1))) for b in range(2)]
        stack = self.stack(ne39, ne39_eq, 0.01, 40, bases, "euler")
        for block in range(2):
            phi = stack.forcing(block)
            np.testing.assert_array_equal(phi, np.ones_like(phi))

    @pytest.mark.parametrize("sub", [1, 2])
    def test_block_is_rebuilt_bit_for_bit(self, ne39, ne39_eq, sub):
        # the adjoint rebuilds each block the forward pass used
        bases = [make_sinusoid_basis(ne39.n, seed) for seed in range(2)]
        method = "euler" if sub == 1 else "rk4"
        stack = self.stack(ne39, ne39_eq, 0.01, 3 * FORCING_ROWS, bases, method)
        first = stack.forcing(2).copy()
        stack.forcing(1)
        assert np.array_equal(first, stack.forcing(2))

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("constant", [False, True])
    def test_rows_are_injection_and_feature_view(self, ne39, ne39_eq, method, constant):
        # every stage row is p_star + phi.a with the controller's view of phi,
        # and stays valid until the next row is drawn: an RK4 step still reads
        # a block's last row after the next block is built
        if constant:
            bases = [make_constant_basis(ne39.n, np.full(ne39.n, 0.1 * (b + 1)))
                     for b in range(2)]
            ctrl = AdaptiveController.initial(
                MonotonePWLController.initial(ne39.n), 1, feature_mode="constant"
            )
        else:
            bases = [make_sinusoid_basis(ne39.n, seed) for seed in range(3)]
            ctrl = AdaptiveController.initial(MonotonePWLController.initial(ne39.n), 3)
        sub = SUBSTAGES[method]
        n_steps = (2 * FORCING_ROWS + 5) // sub
        stack = self.stack(ne39, ne39_eq, 0.01, n_steps, bases, method, ctrl)
        t = np.arange(n_steps * sub + 1) * (0.01 / sub)
        assert t.size > 2 * FORCING_ROWS and t.size % FORCING_ROWS
        p_want = ne39.p_star + stack.basis.injection_variation(t)
        # rows hold phi feature-first, (m + 1, B, n); the controller takes its view
        phi_want = np.moveaxis(stack.basis.features(t), -1, 1)
        held = []
        for r, row in zip(range(t.size), _forcing_rows(stack)):
            held = held[-1:] + [(r, row)]
            for j, (p, phi) in held:
                np.testing.assert_allclose(p, p_want[j], rtol=0, atol=1e-14)
                np.testing.assert_allclose(ctrl.select_features(phi),
                                           ctrl.select_features(phi_want[j]),
                                           rtol=0, atol=1e-14)


def oracle_csv(traj):
    """The whole-table writer the streamed `write_csv` replaced."""
    ids = traj.meta.get("bus_ids", list(range(1, traj.n + 1)))
    header = ["t"] + [f"{block}_{b}" for block in ("delta", "omega", "u", "p") for b in ids]
    table = np.column_stack([traj.t, traj.delta, traj.omega, traj.u, traj.p])
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in table]
    return ("\n".join(lines) + "\n").encode()


class TestTrajectoryExport:
    def make(self, two_bus, horizon=1.0):
        basis = make_sinusoid_basis(2, 11)
        dist = Disturbance(steps=((1, 0.2, 0.5),), seed=7)
        return rollout(two_bus, DroopController.initial(2), basis, dist, horizon=horizon, dt=0.01)

    @pytest.mark.parametrize("horizon", [1.0, _CSV_BLOCK * 0.01], ids=["101", "block+1"])
    def test_csv_bytes_match_the_whole_table_writer(self, two_bus, tmp_path, horizon):
        traj = self.make(two_bus, horizon)
        assert traj.n_records in (101, _CSV_BLOCK + 1)
        traj.write_csv(tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_bytes() == oracle_csv(traj)

    def test_csv_bytes_of_extreme_floats(self, tmp_path):
        values = np.array([[-0.0, 1e-300], [1e300, 5e-324], [3.0, -2.0], [0.1, -1e16]])
        traj = Trajectory(np.array([0.0, 0.5, 1.0, 2.0]), values, values[::-1],
                          -values, values * 0.5, None, 0.5, {"bus_ids": [4, 7]})
        traj.write_csv(tmp_path / "traj.csv")
        text = (tmp_path / "traj.csv").read_bytes()
        assert text == oracle_csv(traj)
        assert b"\n0.0,-0.0,1e-300," in text and b",1e+300,5e-324," in text

    def test_csv_memory_does_not_grow_with_the_horizon(self, two_bus, tmp_path):
        peaks = []
        for horizon in (10.0, 100.0):
            traj = self.make(two_bus, horizon)
            tracemalloc.start()
            try:
                traj.write_csv(tmp_path / "traj.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert traj.n_records == 10_001
        assert peaks[1] <= 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("record", [("omega",), ("omega", "delta", "u"),
                                        ("omega", "delta", "p")])
    def test_csv_refuses_a_missing_history_before_opening(self, two_bus, tmp_path, record):
        scen = Scenario(Disturbance(steps=((1, 0.2, 0.5),)), make_sinusoid_basis(2, 3))
        (traj,) = rollout_batch(two_bus, DroopController.initial(2), [scen],
                                horizon=0.1, record=record)
        missing = next(r for r in ("delta", "u", "p") if r not in record)
        with pytest.raises(ValueError, match=f"^trajectory has no {missing} history; "
                                             "record it to write a CSV$"):
            traj.write_csv(tmp_path / "traj.csv")
        assert not (tmp_path / "traj.csv").exists()

    def test_csv_header_and_rows(self, two_bus, tmp_path):
        traj = self.make(two_bus)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,delta_1,delta_2,omega_1,omega_2,u_1,u_2,p_1,p_2"
        assert len(lines) == 1 + traj.n_records

    def test_csv_values_round_trip(self, two_bus, tmp_path):
        traj = self.make(two_bus)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], traj.t)
        np.testing.assert_array_equal(table[:, 3:5], traj.omega)

    def test_meta_sidecar(self, two_bus, tmp_path):
        traj = self.make(two_bus)
        path = tmp_path / "traj.json"
        traj.write_meta(path)
        meta = json.loads(path.read_text())
        assert meta["seed"] == 7
        assert meta["steps"] == [[1, 0.2, 0.5]]
        assert meta["dt"] == 0.01
        assert len(meta["basis"]["coeffs"]) == 2

    def test_tail(self, two_bus):
        traj = self.make(two_bus)
        tail = traj.tail(0.5)
        assert tail.t[0] == 0.0
        assert tail.n_records == 51
        np.testing.assert_array_equal(tail.omega, traj.omega[50:])
        with pytest.raises(ValueError, match="past the horizon"):
            traj.tail(2.0)


def test_state_shape_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        SystemState(np.zeros(3), np.zeros(2), np.zeros((3, 0)))
