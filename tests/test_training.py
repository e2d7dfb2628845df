import tracemalloc

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
    FORCING_ROWS,
    Disturbance,
    IntegrationError,
    Scenario,
    ScenarioStack,
    SystemState,
    Trajectory,
    _integrate,
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

    def test_empty_count_rejected(self, two_bus):
        with pytest.raises(ValueError, match="count must be >= 1"):
            make_scenarios(two_bus, 0, 0)


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


def whole_history_loss_terms(omega_h, u_h, cost, dt, smooth_max):
    """Oracle of `_loss_terms`: the same reductions over whole-history
    temporaries, with the smooth max's seed as a dense (K+1, B n) array."""
    K1, B = omega_h.shape[:2]
    if smooth_max:
        absw = np.abs(omega_h)
        m = absw.max(axis=0)
        z = np.exp(training.SMOOTH_MAX_TEMP * (absw - m))
        zsum = z.sum(axis=0)
        peak = m + np.log(zsum) / training.SMOOTH_MAX_TEMP
        seed_w = (np.sign(omega_h) * z / zsum / B).reshape(K1, -1)
    else:
        kstar = np.abs(omega_h).argmax(axis=0)
        w_star = np.take_along_axis(omega_h, kstar[None], axis=0)[0]
        peak = np.abs(w_star)
        at = {}
        for i, k in enumerate(kstar.ravel().tolist()):
            at.setdefault(k, []).append(i)
        value = np.sign(w_star).ravel() / B
        seed_w = {k: (idx, value[idx]) for k, idx in at.items()}
    action = (u_h**2).sum(axis=0) * dt
    loss_b = peak.sum(axis=-1) + cost.gamma * (cost.c * action).sum(axis=-1)
    return float(loss_b.mean()), seed_w


def action_sum(u_h):
    """sum_k u_k^2 over a control history, blocked as `_loss_terms` once took it."""
    return training._reduce_records(np.add, u_h, np.square)


def euler_histories(net, controller, scenarios, T, dt=0.01, record=("delta", "omega", "u")):
    """The stack of the training forward pass and its recorded histories."""
    stack = ScenarioStack(net, controller, scenarios, T, dt, "euler")
    return stack, _integrate(stack, record)


def assert_loss_terms_match_oracle(omega_h, u_h, cost, smooth_max):
    loss, seed_w = training._loss_terms(omega_h, action_sum(u_h), cost, 0.01, smooth_max)
    want_loss, want_seed = whole_history_loss_terms(omega_h, u_h, cost, 0.01, smooth_max)
    assert np.array_equal(loss, want_loss)
    if smooth_max:
        K1 = omega_h.shape[0]
        assert -1 not in seed_w and K1 not in seed_w
        for k in range(K1):
            assert k in seed_w
            idx, value = seed_w[k]
            assert idx == slice(None) and np.array_equal(value, want_seed[k])
    else:
        assert seed_w.keys() == want_seed.keys()
        for k, (idx, value) in want_seed.items():
            assert np.array_equal(seed_w[k][0], idx)
            assert np.array_equal(seed_w[k][1], value)
    return seed_w


SMOOTH = pytest.mark.parametrize("smooth_max", [False, True], ids=["hard", "smooth"])


class TestBlockedLossTerms:
    @SMOOTH
    def test_ne39_forward_matches_whole_history(self, smooth_max, ne39):
        cost = make_cost_spec(ne39, 0)
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(ne39.n), 3)
        _, hist = euler_histories(ne39, ctrl, make_scenarios(ne39, 3, 8), cost.T)
        omega_h, u_h = hist["omega"], hist["u"][:-1]
        assert omega_h.shape[0] % training._LOSS_BLOCK not in (0, 1)
        assert_loss_terms_match_oracle(omega_h, u_h, cost, smooth_max)

    @SMOOTH
    @pytest.mark.parametrize("past", [1, 2])
    def test_one_record_past_a_block(self, smooth_max, past):
        # past=1 puts omega one record past a multiple of the block, past=2 u
        rng = np.random.default_rng(past)
        K1 = 2 * training._LOSS_BLOCK + past
        omega_h = rng.normal(size=(K1, 3, 5))
        u_h = rng.normal(size=(K1 - 1, 3, 5))
        cost = CostSpec(gamma=0.1, c=rng.uniform(0.02, 0.08, 5), T=1.0)
        assert_loss_terms_match_oracle(omega_h, u_h, cost, smooth_max)

    @SMOOTH
    def test_tie_across_blocks_keeps_the_earliest_record(self, smooth_max):
        L = training._LOSS_BLOCK
        omega_h = np.full((3 * L + 1, 2, 2), 0.1)
        u_h = np.full((3 * L, 2, 2), 0.2)
        omega_h[L - 3, 0, 0], omega_h[2 * L + 5, 0, 0] = 0.5, 0.5
        omega_h[L - 1, 0, 1], omega_h[L, 0, 1] = -0.7, 0.7  # opposite signs
        omega_h[L + 2, 1, 0], omega_h[3 * L, 1, 0] = 0.9, -0.9
        cost = CostSpec(gamma=0.1, c=np.full(2, 0.05), T=1.0)
        seed_w = assert_loss_terms_match_oracle(omega_h, u_h, cost, smooth_max)
        if not smooth_max:
            # flat indices: (0, 0) -> 0, (0, 1) -> 1, (1, 0) -> 2, (1, 1) -> 3;
            # the untouched (1, 1) is flat, so its first record wins
            assert {k: (list(i), v.tolist()) for k, (i, v) in seed_w.items()} == {
                0: ([3], [0.5]),
                L - 3: ([0], [0.5]),
                L - 1: ([1], [-0.5]),
                L + 2: ([2], [0.5]),
            }

    @SMOOTH
    def test_all_zero_omega_peaks_at_record_0(self, smooth_max):
        omega_h = np.zeros((2 * training._LOSS_BLOCK + 7, 2, 3))
        u_h = np.ones((omega_h.shape[0] - 1, 2, 3))
        cost = CostSpec(gamma=0.1, c=np.full(3, 0.05), T=1.0)
        seed_w = assert_loss_terms_match_oracle(omega_h, u_h, cost, smooth_max)
        if not smooth_max:
            assert list(seed_w) == [0] and np.array_equal(seed_w[0][1], np.zeros(6))

    @SMOOTH
    def test_memory_stays_block_sized(self, smooth_max):
        # 4001 records of (25, 39): 31 MB per history, as a 40 s horizon at
        # dt 0.01 on ne39 with a batch of 25
        rng = np.random.default_rng(0)
        omega_h = rng.normal(size=(4001, 25, 39))
        u_h = rng.normal(size=(4000, 25, 39))
        cost = CostSpec(gamma=0.1, c=np.full(39, 0.05), T=40.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss, seed_w = training._loss_terms(omega_h, action_sum(u_h), cost, 0.01, smooth_max)
            training._add_seed(np.zeros((25, 39)), seed_w, 4000)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss)
        assert peak - before < 2e6
        assert after - before < 0.5e6  # the seed holds (B, n)-sized arrays only


KINDS = pytest.mark.parametrize("kind", ["droop", "pwl", "integral", "adaptive"])


def controller_of_kind(kind, n):
    """A controller of each trainable kind on a PWL base with uneven slopes."""
    rng = np.random.default_rng(4)
    pwl = MonotonePWLController.initial(n, slope=2.0)
    pwl = pwl.with_raw_parameters(pwl.raw_parameters() + rng.normal(size=pwl.raw_slopes.size))
    return {
        "droop": DroopController.initial(n),
        "pwl": pwl,
        "integral": AdaptiveController.initial(pwl, 1, feature_mode="constant"),
        "adaptive": AdaptiveController.initial(pwl, 3),
    }[kind]


def per_step_grad(net, controller, scenarios, cost, dt):
    """Reference adjoint: every controller term taken at its own step."""
    stack, hist = euler_histories(net, controller, scenarios, cost.T, dt)
    delta_h, omega_h, u_h = hist["delta"], hist["omega"], hist["u"][:-1]
    _, peak_seeds = training._loss_terms(omega_h, action_sum(u_h), cost, dt, False)
    seed_w = np.zeros_like(omega_h)
    for k, (idx, value) in peak_seeds.items():
        seed_w[k].reshape(-1)[idx] = value
    seed_u = 2.0 * cost.gamma * cost.c * u_h * dt / stack.B
    adaptive = isinstance(controller, AdaptiveController)
    grad = np.zeros(controller.raw_parameters().size)
    lam_d = np.zeros((stack.B, net.n))
    lam_w = seed_w[-1].copy()
    lam_a = np.zeros((controller.n_features, stack.B, net.n))  # feature-first
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
            view = controller.select_features(np.moveaxis(stack.basis.features(k * dt), -1, 0))
            grad[controller.rate_block] += controller.adaptation_vjp(omega, view, dt * lam_a)
            new_lam_w += controller.adaptation_vjp_omega(view, dt * lam_a)
            lam_a = lam_a + controller.control_vjp_ahat(view, bar_u)
        lam_d, lam_w = new_lam_d, new_lam_w
    return grad


class TestGradients:
    @KINDS
    def test_blocked_adjoint_matches_per_step_sweep(self, kind, ne39):
        # 37 steps: two full forcing blocks and a partial one
        cost = CostSpec(gamma=0.1, c=make_cost_spec(ne39, 2).c, T=0.37)
        assert round(cost.T / 0.01) % FORCING_ROWS != 0
        scens = make_scenarios(ne39, 3, 8, mag_cap=3.0)
        ctrl = controller_of_kind(kind, ne39.n)
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
            assert rep.ok(), f"{type(ctrl).__name__}: {rep.max_rel_err}"

    def test_smooth_max_variant(self, two_bus):
        cost = make_cost_spec(two_bus, 3)
        scens = make_scenarios(two_bus, 4, 5)
        ctrl = DroopController.initial(2)
        rep = gradient_check(two_bus, ctrl, scens, cost, pairs=8, seed=1, smooth_max=True)
        assert rep.ok()

    def test_unreachable_pair_budget_raises(self, two_bus):
        cost = make_cost_spec(two_bus, 3)
        scens = make_scenarios(two_bus, 1, 5)
        ctrl = DroopController.initial(2)
        with pytest.raises(RuntimeError, match="checkable pairs"):
            gradient_check(two_bus, ctrl, scens, cost, pairs=10, seed=1, kink_tol=1e9, tie_tol=1e9)


def full_history_backward(stack, delta_h, omega_h, u_h, seed_w, cost):
    """Oracle of `_backward`: the adjoint sweep reading whole delta, omega and
    control histories, (K+1, B, n), (K+1, B, n) and (K, B, n), with its
    Hessian-vector products and controller hooks taken one by one."""
    net, controller = stack.net, stack.controller
    K, n, B = stack.n_steps, stack.n, stack.B
    adaptive = isinstance(controller, AdaptiveController)
    grad = np.zeros(controller.raw_parameters().size)
    lam_d = np.zeros((B, n))
    lam_w = np.zeros((B, n))
    training._add_seed(lam_w, seed_w, K)
    lam_a = np.zeros((controller.n_features, B, n))
    rows = min(FORCING_ROWS, K)
    bar_u_block = np.empty((rows, B, n))
    bar_a_block = np.empty((rows,) + lam_a.shape)
    dt = stack.dt
    for block in range((K - 1) // FORCING_ROWS, -1, -1):
        k0 = block * FORCING_ROWS
        k1 = min(k0 + FORCING_ROWS, K)
        du_dw = controller.control_wrt_omega(omega_h[k0:k1])
        seed_u = 2.0 * cost.gamma * cost.c * u_h[k0:k1] * dt / B
        if adaptive:
            view = controller.select_features(stack.forcing(block).swapaxes(0, 1))
        for k in range(k1 - 1, k0 - 1, -1):
            lam_dp = coi_project(lam_d)
            g_m = lam_w / net.M
            bar_u = np.add(-dt * g_m, seed_u[k - k0], out=bar_u_block[k - k0])
            new_lam_d = lam_dp - dt * hess_S_vecprod(net, delta_h[k], g_m)
            training._add_seed(lam_w, seed_w, k)
            new_lam_w = lam_w + dt * lam_dp - dt * net.D * g_m + bar_u * du_dw[k - k0]
            if adaptive:
                phi = view[:, k - k0]
                bar_a = np.multiply(dt, lam_a, out=bar_a_block[k - k0])
                new_lam_w += controller.adaptation_vjp_omega(phi, bar_a)
                lam_a = lam_a + controller.control_vjp_ahat(phi, bar_u)
            lam_d, lam_w = new_lam_d, new_lam_w
            if not np.isfinite(lam_w).all():
                raise IntegrationError(f"non-finite adjoint at step {k}")
        grad += controller.control_vjp_raw(omega_h[k0:k1], bar_u_block[: k1 - k0])
        if adaptive:
            grad[controller.rate_block] += controller.adaptation_vjp(
                omega_h[k0:k1], view[:, : k1 - k0], bar_a_block[: k1 - k0].swapaxes(0, 1)
            )
    return grad


def replay_case(kind, net):
    """A controller of `kind` and three scenarios with noise, every step
    switching on at 0.1 s (step 10, inside the first forcing block), and the
    second starting from an explicit state with nonzero estimates."""
    ctrl = controller_of_kind(kind, net.n)
    scens = list(make_scenarios(net, 3, 8, noise_eps=0.05, onset=0.1, mag_cap=3.0))
    rng = np.random.default_rng(6)
    x0 = SystemState(
        training.solve_equilibrium(net) + coi_project(rng.normal(0.0, 0.02, net.n)),
        rng.normal(0.0, 0.05, net.n),
        rng.normal(0.0, 0.1, (net.n, ctrl.n_features)),
    )
    scens[1] = Scenario(scens[1].dist, scens[1].basis, x0)
    return ctrl, scens


class TestReplay:
    @KINDS
    def test_blocks_equal_the_recorded_histories(self, kind, ne39):
        # 37 steps: two full forcing blocks and a partial one
        ctrl, scens = replay_case(kind, ne39)
        _, hist = euler_histories(ne39, ctrl, scens, 0.37, record=("delta", "omega", "u", "a_hat"))
        stack, omega_h, starts, usq = training._forward(ne39, ctrl, scens, 0.01, 0.37, None)
        assert np.array_equal(omega_h, hist["omega"])
        assert np.array_equal(usq, action_sum(hist["u"][:-1]))
        a_h = np.moveaxis(hist["a_hat"], -1, 0)  # feature-first, as the replay
        assert not ctrl.n_features or np.abs(a_h[:, 0]).max() > 0
        rng = np.random.default_rng(7)
        blocks = []
        for k0, view, delta, a_hat, (u, du_dw, vjp_raw) in training._replay(stack, omega_h, starts):
            k1 = k0 + delta.shape[0]
            blocks.append((k0, k1))
            assert np.array_equal(delta, hist["delta"][k0:k1])
            assert np.array_equal(u, hist["u"][k0:k1])
            if ctrl.n_features:
                assert np.array_equal(a_hat, a_h[:, k0:k1])
            else:
                assert view is None and a_hat is None
            omega = omega_h[k0:k1]
            assert np.array_equal(du_dw, ctrl.control_wrt_omega(omega))
            bar_u = rng.normal(size=omega.shape)
            assert np.array_equal(vjp_raw(bar_u), ctrl.control_vjp_raw(omega, bar_u))
        assert blocks == [(32, 37), (16, 32), (0, 16)]

    @KINDS
    @SMOOTH
    @pytest.mark.parametrize("T", [0.37, 0.16, 0.01])
    def test_grad_loss_equals_the_full_history_adjoint(self, kind, smooth_max, T, ne39):
        # 37 steps, exactly one forcing block, and a single step
        ctrl, scens = replay_case(kind, ne39)
        cost = CostSpec(gamma=0.1, c=make_cost_spec(ne39, 2).c, T=T)
        stack, hist = euler_histories(ne39, ctrl, scens, T)
        omega_h, u_h = hist["omega"], hist["u"][:-1]
        want_loss, seed_w = training._loss_terms(omega_h, action_sum(u_h), cost, 0.01, smooth_max)
        want = full_history_backward(stack, hist["delta"], omega_h, u_h, seed_w, cost)
        loss, grad = grad_loss(ne39, ctrl, scens, cost, smooth_max=smooth_max)
        assert np.abs(want).max() > 0
        assert loss == want_loss and np.array_equal(grad, want)

    @pytest.mark.parametrize("count", [1, 3])
    def test_adjoint_divergence_names_its_step(self, count, two_bus):
        # a huge action weight overflows the control seed of the last step
        cost = CostSpec(gamma=1e308, c=np.full(2, 0.05), T=4.0)
        scens = make_scenarios(two_bus, count, 0)
        with pytest.raises(IntegrationError, match=r"^non-finite adjoint at step 399$"):
            grad_loss(two_bus, DroopController.initial(2), scens, cost)

    @SMOOTH
    def test_adaptive_grad_loss_memory(self, smooth_max, ne39):
        # ne39, B = 25, K = 400: the omega history is 3.0 MiB; a sweep that
        # also holds the delta and control histories peaks at 11.6 MiB
        ctrl = AdaptiveController.initial(MonotonePWLController.initial(ne39.n), 3)
        scens = make_scenarios(ne39, 25, 0)
        cost = make_cost_spec(ne39, 0)
        args = dict(smooth_max=smooth_max, delta_star=training.solve_equilibrium(ne39))
        grad_loss(ne39, ctrl, scens, cost, **args)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grad_loss(ne39, ctrl, scens, cost, **args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * 2**20


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
    @pytest.mark.parametrize("scens, epochs, batch_size, message", [
        (4, -1, 25, "epochs must be >= 0 and batch_size >= 1"),
        (4, 1, 0, "epochs must be >= 0 and batch_size >= 1"),
        (0, 1, 25, "empty scenario set"),
    ])
    def test_bad_arguments_rejected(self, two_bus, scens, epochs, batch_size, message):
        cost = make_cost_spec(two_bus, 1)
        battery = make_scenarios(two_bus, 4, 2)[:scens]
        with pytest.raises(ValueError, match=message):
            train(two_bus, DroopController.initial(2), battery, cost,
                  epochs=epochs, batch_size=batch_size)

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
