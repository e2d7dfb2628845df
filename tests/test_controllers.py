import json

import numpy as np
import pytest

from swingfreq.controllers import (
    AdaptiveController,
    ControllerError,
    DroopController,
    LinearController,
    MonotonePWLController,
    RATE_FLOOR,
    SaturatedController,
    controller_from_dict,
    controller_to_dict,
    default_breakpoints,
    inv_softplus,
    load_controller,
    save_controller,
    softplus,
)


def random_pwl(rng, n=1):
    bp = default_breakpoints()
    return MonotonePWLController(bp, rng.normal(scale=2.0, size=(n, bp.size + 1)))


def test_softplus_inverse_round_trip():
    y = np.array([1e-6, 0.1, 1.0, 5.0, 40.0])
    np.testing.assert_allclose(softplus(inv_softplus(y)), y, rtol=1e-12)
    with pytest.raises(ControllerError):
        inv_softplus(np.array([0.0]))


def test_default_breakpoints_grid():
    bp = default_breakpoints()
    assert bp.size == 19
    assert bp[0] == pytest.approx(-0.9) and bp[-1] == pytest.approx(0.9)
    assert 0.0 in bp
    assert np.all(np.diff(bp) > 0)


class TestDroop:
    def test_linear_evaluation(self):
        ctrl = DroopController.from_gains(np.array([5.0]))
        assert ctrl.control(np.array([0.1]))[0] == pytest.approx(0.5)

    def test_origin(self):
        ctrl = DroopController.from_gains(np.array([5.0]))
        assert ctrl.control(np.array([0.0]))[0] == 0.0

    def test_odd_linearity(self):
        ctrl = DroopController.from_gains(np.array([2.0]))
        assert ctrl.control(np.array([-0.3]))[0] == pytest.approx(-0.6)

    def test_gains_positive_by_construction(self):
        ctrl = DroopController(np.array([-50.0, 0.0, 50.0]))
        assert np.all(ctrl.gains > 0)

    def test_from_gains_rejects_nonpositive(self):
        with pytest.raises(ControllerError):
            DroopController.from_gains(np.array([1.0, 0.0]))

    def test_derivative_is_gain(self):
        ctrl = DroopController.initial(3, gain=0.7)
        np.testing.assert_allclose(ctrl.control_wrt_omega(np.zeros(3)), 0.7)

    def test_raw_round_trip(self):
        ctrl = DroopController.initial(4)
        again = ctrl.with_raw_parameters(ctrl.raw_parameters())
        np.testing.assert_array_equal(again.raw_gain, ctrl.raw_gain)
        with pytest.raises(ControllerError):
            ctrl.with_raw_parameters(np.zeros(5))


class TestMonotonePWL:
    def test_origin_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ctrl = random_pwl(rng, n=3)
            assert np.all(ctrl.control(np.zeros(3)) == 0.0)

    def test_unit_slopes_reduce_to_identity(self):
        bp = default_breakpoints()
        raw = np.full((2, bp.size + 1), inv_softplus(1.0))
        ctrl = MonotonePWLController(bp, raw)
        w = np.array([0.2, -1.7])
        np.testing.assert_allclose(ctrl.control(w), w, rtol=1e-12)

    def test_monotone_for_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            ctrl = random_pwl(rng)
            w = np.sort(rng.uniform(-2.0, 2.0, 2))
            u1 = ctrl.control(w[:1])[0]
            u2 = ctrl.control(w[1:])[0]
            assert u2 >= u1

    def test_sector_condition(self):
        # w * uhat(w) >= 0 is what the energy-decrease certificate leans on
        rng = np.random.default_rng(7)
        w = np.linspace(-5.0, 5.0, 2001)[:, None]
        for _ in range(20):
            ctrl = random_pwl(rng)
            assert np.all(w[:, 0] * ctrl.control(w)[:, 0] >= 0.0)

    def test_slopes_positive(self):
        rng = np.random.default_rng(3)
        ctrl = random_pwl(rng, n=5)
        assert np.all(ctrl.slopes > 0)

    def test_left_derivative_at_breakpoints(self):
        bp = np.array([-0.5, 0.0, 0.5])
        raw = inv_softplus(np.array([[1.0, 2.0, 3.0, 4.0]]))
        ctrl = MonotonePWLController(bp, raw)
        # at a breakpoint the reported slope belongs to the segment on the left
        np.testing.assert_allclose(ctrl.control_wrt_omega(np.array([-0.5])), [1.0])
        np.testing.assert_allclose(ctrl.control_wrt_omega(np.array([0.0])), [2.0])
        np.testing.assert_allclose(ctrl.control_wrt_omega(np.array([0.51])), [4.0])

    def test_value_matches_slope_integral(self):
        rng = np.random.default_rng(9)
        ctrl = random_pwl(rng)
        for w in (-1.3, -0.17, 0.43, 1.9):
            grid = np.linspace(0.0, w, 20001)
            riemann = np.trapezoid(ctrl.control_wrt_omega(grid[:, None])[:, 0], grid)
            assert ctrl.control(np.array([w]))[0] == pytest.approx(riemann, abs=5e-4)

    def test_breakpoints_must_increase(self):
        with pytest.raises(ControllerError, match="increasing"):
            MonotonePWLController(np.array([0.1, 0.1]), np.zeros((1, 3)))

    def test_raw_shape_checked(self):
        with pytest.raises(ControllerError):
            MonotonePWLController(np.array([0.0]), np.zeros((1, 3)))


def overlaps_oracle(ctrl, omega):
    """Signed overlap of [0, omega] with each segment, shape (..., n, m+1).

    The controller's former evaluation: u is this contracted with the slopes,
    and the slope gradient is bar_u times it.  The +-1e9 outer ends were its
    sentinels; the segment table extends the outer segments without bound.
    """
    lo = np.concatenate(([-1e9], ctrl.breakpoints))
    hi = np.concatenate((ctrl.breakpoints, [1e9]))
    w = np.asarray(omega, dtype=float)[..., None]
    return np.minimum(np.maximum(w, lo), hi) - np.clip(0.0, lo, hi)


class TestPWLSegmentTable:
    """The segment-table evaluation against the overlap formula it replaces."""

    GRIDS = {
        "default": default_breakpoints(),
        "no_zero": np.array([-0.7, -0.2, 0.3, 0.8]),
        "all_positive": np.array([0.2, 0.5, 1.1]),
        "all_negative": np.array([-0.6, -0.1]),
    }

    def make(self, grid, n=4, seed=0):
        bp = self.GRIDS[grid]
        raw = np.random.default_rng(seed).normal(scale=2.0, size=(n, bp.size + 1))
        return MonotonePWLController(bp, raw)

    def points(self, ctrl, seed=0):
        """(P, n) rows holding every breakpoint, 0 and points beyond the outer
        breakpoints (each bus in its own order), then random (K, B, n) draws."""
        bp = ctrl.breakpoints
        fixed = np.concatenate((bp, [0.0, bp[0] - 0.3, bp[-1] + 0.3, -40.0, 40.0]))
        rng = np.random.default_rng(seed)
        exact = np.stack([rng.permutation(fixed) for _ in range(ctrl.n)], axis=-1)
        return exact, rng.uniform(-2.0, 2.0, (5, 3, ctrl.n))

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_control_matches_overlaps(self, grid):
        ctrl = self.make(grid)
        for w in self.points(ctrl):
            oracle = np.einsum("...nj,nj->...n", overlaps_oracle(ctrl, w), ctrl.slopes)
            np.testing.assert_allclose(ctrl.control(w), oracle, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_derivative_matches_overlaps(self, grid):
        # d overlap_j / d omega is 1 on (lo_j, hi_j]: the left derivative
        ctrl = self.make(grid)
        lo = np.concatenate(([-np.inf], ctrl.breakpoints))
        hi = np.concatenate((ctrl.breakpoints, [np.inf]))
        for w in self.points(ctrl):
            inside = (w[..., None] > lo) & (w[..., None] <= hi)
            oracle = np.einsum("...nj,nj->...n", inside.astype(float), ctrl.slopes)
            np.testing.assert_allclose(
                ctrl.control_wrt_omega(w), oracle, rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_vjp_matches_overlaps(self, grid):
        ctrl = self.make(grid)
        rng = np.random.default_rng(5)
        dslopes = 1.0 / (1.0 + np.exp(-ctrl.raw_slopes))
        for w in self.points(ctrl):
            for bar_u in (rng.normal(size=w.shape), rng.normal(size=ctrl.n)):
                bar = np.broadcast_to(bar_u, w.shape)[..., None] * overlaps_oracle(ctrl, w)
                oracle = (bar.reshape(-1, *ctrl.raw_slopes.shape).sum(0) * dslopes).ravel()
                np.testing.assert_allclose(
                    ctrl.control_vjp_raw(w, bar_u), oracle, rtol=1e-12, atol=1e-12
                )

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_origin_exact(self, grid):
        for seed in range(10):
            ctrl = self.make(grid, seed=seed)
            zero = np.zeros((2, 3, ctrl.n))
            assert np.all(ctrl.control(zero) == 0.0)
            assert np.all(ctrl.control_vjp_raw(zero, np.ones(ctrl.n)) == 0.0)


class TestAdaptive:
    def base(self, n=1):
        return DroopController.initial(n, gain=1.0)

    def test_zero_estimates_reduce_to_base(self):
        ctrl = AdaptiveController.initial(self.base(), 3)
        w = np.array([0.3])
        phi = np.array([[0.2, -0.1, 1.0]])
        got = ctrl.control(w, phi, np.zeros((1, 3)))
        np.testing.assert_allclose(got, self.base().control(w))

    def test_feature_dot_product(self):
        ctrl = AdaptiveController.initial(self.base(), 3)
        u = ctrl.control(
            np.array([0.0]),
            np.array([[0.0, 0.0, 1.0]]),
            np.array([[0.1, 0.2, 0.05]]),
        )
        assert u[0] == pytest.approx(0.05)

    def test_linear_in_estimates(self):
        ctrl = AdaptiveController.initial(self.base(), 3)
        rng = np.random.default_rng(1)
        w = rng.normal(size=1)
        phi = rng.normal(size=(1, 3))
        a1, a2 = rng.normal(size=(2, 1, 3))
        lhs = ctrl.control(w, phi, a1 + 2.0 * a2)
        rhs = ctrl.control(w, phi, a1) + 2.0 * (
            ctrl.control(w, phi, a2) - ctrl.base.control(w)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_adaptation_zero_at_zero_deviation(self):
        ctrl = AdaptiveController.initial(self.base(), 3)
        got = ctrl.adaptation(np.zeros(1), np.ones((1, 3)))
        np.testing.assert_array_equal(got, np.zeros((1, 3)))

    def test_adaptation_diagonal_product(self):
        ctrl = AdaptiveController.initial(self.base(), 3, rate=1.0)
        got = ctrl.adaptation(np.array([0.2]), np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(got, [[0.0, 0.0, 0.2]], atol=1e-12)

    def test_euler_step_of_adaptation(self):
        # ahat(0)=0, constant omega=0.2, unit rate, phi=(1): one Euler step
        # of d(ahat)/dt = omega*A*phi at dt=0.01 lands on 0.002
        ctrl = AdaptiveController.initial(self.base(), 1, rate=1.0, feature_mode="constant")
        a = np.zeros((1, 1))
        a = a + 0.01 * ctrl.adaptation(np.array([0.2]), np.ones((1, 1)))
        assert a[0, 0] == pytest.approx(0.002, abs=1e-15)

    def test_rates_floored(self):
        ctrl = AdaptiveController(self.base(), np.full((1, 3), -1e3))
        assert np.all(ctrl.rates >= RATE_FLOOR)

    def test_select_features_constant_mode(self):
        ctrl = AdaptiveController.initial(self.base(), 1, feature_mode="constant")
        phi = np.array([[0.3, 0.7, 1.0]])
        np.testing.assert_array_equal(ctrl.select_features(phi), [[1.0]])

    def test_select_features_checks_width(self):
        ctrl = AdaptiveController.initial(self.base(), 3)
        with pytest.raises(ControllerError, match="features"):
            ctrl.select_features(np.ones((1, 2)))

    def test_control_requires_estimates(self):
        ctrl = AdaptiveController.initial(self.base(), 3)
        with pytest.raises(ControllerError):
            ctrl.control(np.zeros(1))
        with pytest.raises(ControllerError, match="mismatch"):
            ctrl.control(np.zeros(1), np.ones((1, 3)), np.ones((1, 2)))

    def test_base_must_be_static(self):
        inner = AdaptiveController.initial(self.base(), 3)
        with pytest.raises(ControllerError):
            AdaptiveController.initial(inner, 3)

    def test_raw_layout_base_then_rates(self):
        ctrl = AdaptiveController.initial(self.base(2), 3)
        raw = ctrl.raw_parameters()
        assert raw.size == 2 + 6
        moved = ctrl.with_raw_parameters(raw + 0.5)
        np.testing.assert_allclose(moved.base.raw_parameters(), raw[:2] + 0.5)
        np.testing.assert_allclose(moved.raw_rate, (raw[2:] + 0.5).reshape(2, 3))


class TestSaturation:
    def test_clips_output(self):
        ctrl = SaturatedController(LinearController(np.array([10.0])), u_max=0.3)
        np.testing.assert_allclose(ctrl.control(np.array([1.0])), [0.3])
        np.testing.assert_allclose(ctrl.control(np.array([-1.0])), [-0.3])
        np.testing.assert_allclose(ctrl.control(np.array([0.01])), [0.1])

    def test_refuses_training_hooks(self):
        ctrl = SaturatedController(DroopController.initial(1), u_max=1.0)
        with pytest.raises(ControllerError, match="saturation"):
            ctrl.control_wrt_omega(np.zeros(1))
        with pytest.raises(ControllerError, match="saturation"):
            ctrl.control_vjp_raw(np.zeros(1), np.zeros(1))

    def test_rejects_bad_construction(self):
        with pytest.raises(ControllerError):
            SaturatedController(DroopController.initial(1), u_max=0.0)
        with pytest.raises(ControllerError, match="nested"):
            SaturatedController(
                SaturatedController(DroopController.initial(1), 1.0), 1.0
            )


class TestSerialization:
    def controllers(self):
        rng = np.random.default_rng(17)
        droop = DroopController(rng.normal(size=3))
        pwl = random_pwl(rng, n=3)
        yield droop
        yield pwl
        yield LinearController(rng.normal(size=3))
        yield AdaptiveController(pwl, rng.normal(size=(3, 3)), "basis")
        yield AdaptiveController(droop, rng.normal(size=(3, 1)), "constant")
        yield SaturatedController(droop, 0.8)

    def test_round_trip_lossless(self, tmp_path):
        for k, ctrl in enumerate(self.controllers()):
            path = tmp_path / f"c{k}.json"
            save_controller(ctrl, path)
            again = load_controller(path)
            assert type(again) is type(ctrl)
            np.testing.assert_array_equal(
                again.raw_parameters(), ctrl.raw_parameters()
            )

    def test_round_trip_preserves_structure(self):
        ctrl = AdaptiveController(
            MonotonePWLController(
                np.array([-0.2, 0.4]), np.array([[0.1, 0.2, 0.3]])
            ),
            np.array([[1.0, 2.0, 3.0]]),
        )
        doc = controller_to_dict(ctrl)
        again = controller_from_dict(doc)
        assert isinstance(again.base, MonotonePWLController)
        np.testing.assert_array_equal(again.base.breakpoints, ctrl.base.breakpoints)
        assert again.feature_mode == "basis"

    def test_unknown_type_rejected(self):
        with pytest.raises(ControllerError, match="unknown controller type"):
            controller_from_dict({"type": "fuzzy"})

    def test_malformed_document_rejected(self):
        with pytest.raises(ControllerError, match="malformed"):
            controller_from_dict({"type": "droop"})

    def test_document_error_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"type": "droop"}))
        with pytest.raises(ControllerError, match=f"{path}.*'raw_gain'"):
            load_controller(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ControllerError, match="not found"):
            load_controller(tmp_path / "absent.json")


@pytest.mark.parametrize("make, key", [
    (lambda bad: DroopController(np.array([0.5, bad])), "raw_gain"),
    (lambda bad: MonotonePWLController(np.array([-0.5, bad]), np.zeros((2, 3))), "breakpoints"),
    (lambda bad: MonotonePWLController(np.array([-0.5, 0.5]), np.array([[0.0, bad, 0.0]])),
     "raw_slopes"),
    (lambda bad: LinearController(np.array([bad])), "gain"),
    (lambda bad: AdaptiveController(DroopController.initial(1), np.array([[bad]])), "raw_rate"),
    (lambda bad: SaturatedController(DroopController.initial(1), bad), "u_max"),
], ids=["droop", "pwl-breakpoints", "pwl-slopes", "linear", "adaptive", "saturated"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_parameters_are_refused_naming_the_key(make, key, bad):
    with pytest.raises(ControllerError, match=f"^{key} must be finite"):
        make(bad)
