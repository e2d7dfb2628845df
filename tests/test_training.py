import numpy as np
import pytest

from swingfreq import training
from swingfreq.controllers import (
    AdaptiveController,
    DroopController,
    MonotonePWLController,
    SaturatedController,
    ControllerError,
)
from swingfreq.dynamics import (
    Disturbance,
    IntegrationError,
    Trajectory,
    make_constant_basis,
    rollout,
    rollout_batch,
)
from swingfreq.netmodel import coi_project, hess_S_vecprod
from swingfreq.training import (
    AdamState,
    CostSpec,
    batch_loss,
    grad_loss,
    gradient_check,
    make_cost_spec,
    make_scenario_set,
    make_scenarios,
    restoration_cost,
    train,
    transient_loss,
)


def flat_traj(n_records, n, dt, omega=0.0, u=0.0):
    t = np.arange(n_records) * dt
    shape = (n_records, n)
    return Trajectory(
        t,
        np.zeros(shape),
        np.full(shape, omega),
        np.full(shape, u),
        np.zeros(shape),
        np.zeros((n_records, n, 0)),
        dt,
    )


class TestCostSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostSpec(gamma=-0.1, c=np.array([0.05]), T=4.0)
        with pytest.raises(ValueError):
            CostSpec(gamma=0.1, c=np.array([0.0]), T=4.0)
        with pytest.raises(ValueError):
            CostSpec(gamma=0.1, c=np.array([0.05]), T=0.0)

    def test_draw_range_and_determinism(self, ne39):
        a = make_cost_spec(ne39, 5)
        b = make_cost_spec(ne39, 5)
        np.testing.assert_array_equal(a.c, b.c)
        assert np.all(a.c >= 0.025) and np.all(a.c <= 0.075)
        assert a.gamma == 0.1 and a.T == 4.0


class TestLossFunctions:
    def test_zero_trajectory(self):
        cost = CostSpec(gamma=0.1, c=np.array([0.05]), T=4.0)
        assert transient_loss(flat_traj(401, 1, 0.01), cost) == 0.0

    def test_sup_term_only(self):
        cost = CostSpec(gamma=0.1, c=np.array([0.05]), T=4.0)
        traj = flat_traj(401, 1, 0.01, omega=0.1)
        assert transient_loss(traj, cost) == pytest.approx(0.1, abs=1e-15)

    def test_action_term_closed_form(self):
        # left Riemann sum of u^2 = 1 over [0, 4): 400 steps of 0.01 each
        cost = CostSpec(gamma=0.1, c=np.array([0.05]), T=4.0)
        traj = flat_traj(401, 1, 0.01, u=1.0)
        assert transient_loss(traj, cost) == pytest.approx(0.02, abs=1e-12)

    def test_horizon_checked(self):
        cost = CostSpec(gamma=0.1, c=np.array([0.05]), T=4.0)
        with pytest.raises(ValueError, match="cost horizon"):
            transient_loss(flat_traj(101, 1, 0.01), cost)

    def test_restoration_zero(self):
        assert restoration_cost(flat_traj(1501, 2, 0.01)) == 0.0

    def test_restoration_constant_window(self):
        traj = flat_traj(1501, 3, 0.01, omega=0.01)
        assert restoration_cost(traj) == pytest.approx(0.01, abs=1e-15)

    def test_restoration_horizon_checked(self):
        with pytest.raises(ValueError, match="window end"):
            restoration_cost(flat_traj(401, 1, 0.01))

    def test_droop_offset_matches_static_balance(self, two_bus):
        # sustained step p under pure droop settles at omega = p/(sum D + sum gains)
        ctrl = DroopController.initial(2, gain=0.5)
        dist = Disturbance(steps=((0, 0.4, 0.0),))
        traj = rollout(two_bus, ctrl, make_constant_basis(2), dist, horizon=60.0, dt=0.01)
        predicted = 0.4 / (two_bus.D.sum() + ctrl.gains.sum())
        assert restoration_cost(traj, window=(50.0, 60.0)) == pytest.approx(predicted, rel=1e-4)
        assert restoration_cost(traj) > 0.01


class TestScenarios:
    def test_deterministic(self, ne39):
        a = make_scenarios(ne39, 10, 42)
        b = make_scenarios(ne39, 10, 42)
        for sa, sb in zip(a, b):
            assert sa.dist.steps == sb.dist.steps
            assert sa.dist.seed == sb.dist.seed
            np.testing.assert_array_equal(sa.basis.coeffs, sb.basis.coeffs)

    def test_bus_count_and_magnitudes(self, ne39):
        scens = make_scenarios(ne39, 200, 1)
        counts = set()
        for s in scens:
            counts.add(len(s.dist.steps))
            for bus, mag, onset in s.dist.steps:
                assert 0 <= bus < 39
                assert -1.0 <= mag <= 1.0
                assert onset == 0.0
        assert counts == {1, 2, 3}

    def test_onset_and_noise_forwarded(self, ne39):
        scens = make_scenarios(ne39, 5, 3, noise_eps=0.03, onset=2.0)
        for s in scens:
            assert s.dist.noise_eps == 0.03
            assert all(o == 2.0 for _, _, o in s.dist.steps)

    def test_small_network_caps_buses(self, two_bus):
        scens = make_scenarios(two_bus, 50, 9)
        assert max(len(s.dist.steps) for s in scens) <= 2

    def test_split_disjoint_seeds(self, two_bus):
        ss = make_scenario_set(two_bus, 4, 4, 7)
        train_seeds = {s.dist.seed for s in ss.train}
        test_seeds = {s.dist.seed for s in ss.test}
        assert not train_seeds & test_seeds
        assert ss.seed == 7


class TestBatchEngine:
    def test_matches_sequential_euler(self, two_bus):
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 3, 11, noise_eps=0.01)
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(2), 3)
        for s in scens:
            got = batch_loss(two_bus, ctrl, [s], cost, dt=0.01)
            traj = rollout(two_bus, ctrl, s.basis, s.dist, horizon=cost.T, dt=0.01, method="euler")
            assert got == pytest.approx(transient_loss(traj, cost), abs=1e-12)

    def test_mid_horizon_onset_battery_matches_rollout_batch(self, two_bus):
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 3, 17, onset=1.5)
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(2), 3)
        trajs = rollout_batch(two_bus, ctrl, scens, horizon=cost.T, method="euler")
        expected = np.mean([transient_loss(t, cost) for t in trajs])
        assert batch_loss(two_bus, ctrl, scens, cost) == pytest.approx(expected, abs=1e-12)

    def test_batch_mean(self, two_bus):
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 4, 13)
        singles = [batch_loss(two_bus, DroopController.initial(2), [s], cost) for s in scens]
        joint = batch_loss(two_bus, DroopController.initial(2), list(scens), cost)
        assert joint == pytest.approx(np.mean(singles), abs=1e-12)

    def test_saturated_controller_rejected(self, two_bus):
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 1, 2)
        ctrl = SaturatedController(DroopController.initial(2), 1.0)
        with pytest.raises(ControllerError, match="saturation"):
            batch_loss(two_bus, ctrl, list(scens), cost)

    def test_mixed_basis_layouts_rejected(self, two_bus):
        cost = make_cost_spec(two_bus, 1)
        s1 = make_scenarios(two_bus, 1, 2)[0]
        s2 = type(s1)(s1.dist, make_constant_basis(2))
        with pytest.raises(ValueError, match="basis layout"):
            batch_loss(two_bus, DroopController.initial(2), [s1, s2], cost)


def per_step_grad(net, controller, scenarios, cost, dt):
    """Reference adjoint: every controller term taken at its own step."""
    stack, delta_h, omega_h, u_h = training._forward(
        net, controller, scenarios, dt, cost.T, None
    )
    _, seed_w, seed_u = training._loss_terms(omega_h, u_h, cost, dt, False)
    adaptive = isinstance(controller, AdaptiveController)
    grad = np.zeros(controller.raw_parameters().size)
    lam_d = np.zeros((stack.B, net.n))
    lam_w = seed_w[-1].copy()
    lam_a = np.zeros((stack.B, net.n, controller.n_features))
    for k in range(stack.n_steps - 1, -1, -1):
        omega = omega_h[k]
        lam_dp = coi_project(lam_d)
        g_m = lam_w / net.M
        bar_u = -dt * g_m + seed_u[k]
        new_lam_d = lam_dp - dt * hess_S_vecprod(net, delta_h[k], g_m)
        new_lam_w = (lam_w + seed_w[k] + dt * lam_dp - dt * net.D * g_m
                     + bar_u * controller.control_wrt_omega(omega))
        grad += controller.control_vjp_raw(omega, bar_u)
        if adaptive:
            view = controller.select_features(stack.basis.features(k * dt))
            g_a, bar_w = controller.adaptation_vjp(omega, view, dt * lam_a)
            grad += g_a
            new_lam_w += bar_w
            lam_a = lam_a + controller.control_vjp_ahat(view, bar_u)
        lam_d, lam_w = new_lam_d, new_lam_w
    return grad


class TestGradients:
    @pytest.mark.parametrize("kind", ["droop", "pwl", "integral", "adaptive"])
    def test_blocked_adjoint_matches_per_step_sweep(self, kind, ne39):
        # 37 steps: one full block of controller terms and a partial one
        cost = CostSpec(gamma=0.1, c=make_cost_spec(ne39, 2).c, T=0.37)
        assert round(cost.T / 0.01) % training.ADJOINT_BLOCK != 0
        scens = make_scenarios(ne39, 3, 8, mag_cap=3.0)
        rng = np.random.default_rng(4)
        pwl = MonotonePWLController.initial(ne39.n, slope=2.0)
        pwl = pwl.with_raw_parameters(pwl.raw_parameters() + rng.normal(size=pwl.raw_slopes.size))
        ctrl = {
            "droop": DroopController.initial(ne39.n),
            "pwl": pwl,
            "integral": AdaptiveController.initial(pwl, 1, feature_mode="constant"),
            "adaptive": AdaptiveController.initial(pwl, 3),
        }[kind]
        _, got = grad_loss(ne39, ctrl, scens, cost)
        ref = per_step_grad(ne39, ctrl, scens, cost, 0.01)
        assert np.abs(ref).max() > 0
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_droop_gradient_sign(self, two_bus):
        # a little more damping always helps on a pure step at small gain
        cost = CostSpec(gamma=0.1, c=np.full(2, 0.05), T=4.0)
        scen = make_scenarios(two_bus, 1, 21)[0]
        ctrl = DroopController.initial(2, gain=0.1)
        _, grad = grad_loss(two_bus, ctrl, scen, cost)
        assert np.all(grad < 0)

    def test_matches_finite_differences_all_types(self, two_bus):
        cost = make_cost_spec(two_bus, 3)
        scens = make_scenarios(two_bus, 6, 42)
        kinds = [
            DroopController.initial(2),
            MonotonePWLController.initial(2),
            AdaptiveController.initial(
                MonotonePWLController.initial(2), 1, feature_mode="constant"
            ),
            AdaptiveController.initial(MonotonePWLController.initial(2), 3),
        ]
        for ctrl in kinds:
            rep = gradient_check(two_bus, ctrl, scens, cost, pairs=10, seed=3)
            assert rep.ok(1e-4), f"{type(ctrl).__name__}: {rep.max_rel_err}"

    def test_smooth_max_variant(self, two_bus):
        cost = make_cost_spec(two_bus, 3)
        scens = make_scenarios(two_bus, 4, 5)
        ctrl = DroopController.initial(2)
        rep = gradient_check(two_bus, ctrl, scens, cost, pairs=8, seed=1, smooth_max=True)
        assert rep.ok(1e-4)

    def test_unreachable_pair_budget_raises(self, two_bus):
        cost = make_cost_spec(two_bus, 3)
        scens = make_scenarios(two_bus, 1, 5)
        ctrl = DroopController.initial(2)
        with pytest.raises(RuntimeError, match="checkable pairs"):
            gradient_check(two_bus, ctrl, scens, cost, pairs=10, seed=1, kink_tol=1e9, tie_tol=1e9)


class TestAdam:
    def test_bias_corrected_first_step(self):
        st = AdamState.zeros(2)
        raw = np.zeros(2)
        grad = np.array([0.3, -2.0])
        out = st.update(raw, grad, lr=1e-3)
        # after bias correction the first step has magnitude ~lr per coordinate
        np.testing.assert_allclose(out, -1e-3 * np.sign(grad), rtol=1e-4)

    def test_round_trip(self):
        st = AdamState.zeros(3)
        st.update(np.zeros(3), np.ones(3), lr=1e-2)
        again = AdamState.from_dict(st.to_dict())
        np.testing.assert_array_equal(again.m, st.m)
        np.testing.assert_array_equal(again.v, st.v)
        assert again.t == st.t


class TestTrain:
    def test_zero_epochs_returns_init(self, two_bus):
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 4, 2)
        ctrl = DroopController.initial(2)
        rep = train(two_bus, ctrl, scens, cost, epochs=0)
        np.testing.assert_array_equal(rep.controller.raw_parameters(), ctrl.raw_parameters())
        assert rep.losses == ()
        assert not rep.aborted

    def test_loss_decreases_on_small_run(self, two_bus):
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 10, 4)
        for ctrl in (
            DroopController.initial(2),
            AdaptiveController.initial(MonotonePWLController.initial(2), 3),
        ):
            rep = train(two_bus, ctrl, scens, cost, epochs=8, batch_size=5, lr=3e-3, seed=0)
            assert rep.losses[-1] < rep.losses[0]
            assert not rep.aborted

    def test_determinism(self, two_bus):
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 6, 4)
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(2), 3)
        a = train(two_bus, ctrl, scens, cost, epochs=3, batch_size=3, seed=5)
        b = train(two_bus, ctrl, scens, cost, epochs=3, batch_size=3, seed=5)
        assert a.losses == b.losses
        np.testing.assert_array_equal(
            a.controller.raw_parameters(), b.controller.raw_parameters()
        )

    def test_resume_is_exact(self, two_bus):
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 6, 4)
        ctrl = DroopController.initial(2)
        full = train(two_bus, ctrl, scens, cost, epochs=6, batch_size=3, seed=9)
        head = train(two_bus, ctrl, scens, cost, epochs=3, batch_size=3, seed=9)
        tail = train(
            two_bus, head.controller, scens, cost,
            epochs=3, batch_size=3, seed=9,
            optimizer=head.optimizer, start_epoch=3,
        )
        assert head.losses + tail.losses == full.losses
        np.testing.assert_array_equal(
            tail.controller.raw_parameters(), full.controller.raw_parameters()
        )

    def test_resume_keeps_divergence_anchor(self, two_bus):
        # a factor just below 1 passes only losses under the run's first, so
        # a resumed call must compare against that loss, not its own first
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 6, 4)
        ctrl = DroopController.initial(2)
        kw = dict(batch_size=3, seed=9, lr=1e-2, divergence_factor=0.999)
        full = train(two_bus, ctrl, scens, cost, epochs=2, **kw)
        head = train(two_bus, ctrl, scens, cost, epochs=1, **kw)
        tail = train(
            two_bus, head.controller, scens, cost, epochs=1, **kw,
            optimizer=head.optimizer, start_epoch=1, anchor_loss=head.losses[0],
        )
        assert not full.aborted and not tail.aborted
        assert full.losses[1] < full.losses[0]
        assert head.losses + tail.losses == full.losses
        np.testing.assert_array_equal(
            tail.controller.raw_parameters(), full.controller.raw_parameters()
        )

    def test_constraints_preserved_each_epoch(self, two_bus):
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 6, 4)
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(2), 3)
        seen = []
        rep = train(
            two_bus, ctrl, scens, cost, epochs=4, batch_size=3,
            callback=lambda e, loss: seen.append(e),
        )
        assert seen == [0, 1, 2, 3]
        assert np.all(rep.controller.rates >= 1e-4)
        assert np.all(rep.controller.base.slopes >= 0)

    def test_divergence_aborts_with_last_good(self, two_bus):
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 4, 2)
        ctrl = DroopController.initial(2)
        rep = train(two_bus, ctrl, scens, cost, epochs=10, batch_size=2, lr=1e8)
        assert rep.aborted
        assert np.all(np.isfinite(rep.controller.raw_parameters()))

    def test_abort_restores_optimizer_state(self, two_bus):
        # lr 100 finishes one epoch and then diverges partway through the next
        cost = make_cost_spec(two_bus, 1)
        scens = make_scenarios(two_bus, 4, 2)
        ctrl = DroopController.initial(2)
        rep = train(two_bus, ctrl, scens, cost, epochs=10, batch_size=2, lr=100.0)
        assert rep.aborted and len(rep.losses) >= 1
        clean = train(two_bus, ctrl, scens, cost, epochs=len(rep.losses), batch_size=2, lr=100.0)
        assert not clean.aborted
        np.testing.assert_array_equal(rep.optimizer.m, clean.optimizer.m)
        np.testing.assert_array_equal(rep.optimizer.v, clean.optimizer.v)
        assert rep.optimizer.t == clean.optimizer.t
        np.testing.assert_array_equal(
            rep.controller.raw_parameters(), clean.controller.raw_parameters()
        )


def test_integration_error_names_step(two_bus):
    # a gain far beyond the Euler stability limit makes the forward pass overflow
    cost = CostSpec(gamma=0.1, c=np.full(2, 0.05), T=4.0)
    scen = make_scenarios(two_bus, 1, 2)[0]
    stiff = DroopController.initial(2).with_raw_parameters(np.full(2, 1e6))
    with pytest.raises(IntegrationError, match=r"step \d+"):
        grad_loss(two_bus, stiff, scen, cost)
    # in a batch the cause also names the diverging scenario
    pair = make_scenarios(two_bus, 2, 2)
    with pytest.raises(IntegrationError, match=r"scenario \d+ at step \d+"):
        grad_loss(two_bus, stiff, list(pair), cost)
