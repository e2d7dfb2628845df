"""Controllers: droop, monotone piecewise-linear, and adaptive augmentation.

Base controllers are static per-bus feedbacks u_i = uhat_i(omega_i) that are
monotonically increasing with uhat_i(0) = 0; those two properties are what
the energy-decrease certificate relies on, so the parameterizations enforce
them by construction (softplus maps, origin anchoring) rather than by
projection.  The adaptive controller augments a base controller with a
feature-linear term:

    u_i = uhat_i(omega_i) + phi_i(t) . ahat_i,
    d/dt ahat_i = omega_i * A_i phi_i(t),   A_i = diag(rates_i) > 0.

Restricting the features to the constant 1 recovers a PI controller.

Controllers are immutable; the adaptive estimates ahat live in the dynamic
state, not here, which keeps rollouts and backpropagation purely functional.
Every controller exposes its trainable parameters as one flat unconstrained
vector (`raw_parameters` / `with_raw_parameters`) and one backward hook,
`linearize`: u, du/domega and the pull-back to the raw gradient at a block
of frequencies, all the adjoint needs of a base controller.
`control_wrt_omega` and `control_vjp_raw` are views of it on `Controller`.

The adaptive hooks are feature-first: for frequencies omega of shape
(..., n), features phi and estimates ahat have shape (l,) + omega.shape,
one contiguous slab per feature, the layout of the integrator's packed
state.  Public layouts stay bus-major: `raw_rate` and `rates` are (n, l), and
the raw parameter vector holds raw_rate in that order.  `control` and
`adaptation` write into `out` when given, so the integrator fills its stage
buffers without a copy.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "AdaptiveController",
    "Controller",
    "ControllerError",
    "DroopController",
    "LinearController",
    "MonotonePWLController",
    "SaturatedController",
    "controller_from_dict",
    "controller_to_dict",
    "default_breakpoints",
    "inv_softplus",
    "save_controller",
    "softplus",
]

RATE_FLOOR = 1e-4
PWL_BREAKPOINTS = 19  # interior breakpoints of the default PWL grid
PWL_WIDTH = 1.0  # the default grid spans [-PWL_WIDTH, PWL_WIDTH]


class ControllerError(ValueError):
    """Invalid controller parameters or mismatched dimensions."""


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x), computed without overflow for large |x|."""
    x = np.asarray(x, dtype=float)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def inv_softplus(y: np.ndarray) -> np.ndarray:
    """Inverse of softplus on y > 0: y + log(1 - e^-y)."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ControllerError("inv_softplus requires positive values")
    return y + np.log(-np.expm1(-y))


def default_breakpoints() -> np.ndarray:
    """PWL_BREAKPOINTS uniform interior breakpoints over [-PWL_WIDTH, PWL_WIDTH]."""
    return np.linspace(-PWL_WIDTH, PWL_WIDTH, PWL_BREAKPOINTS + 2)[1:-1].copy()


def _require_finite(**params: np.ndarray) -> None:
    for name, arr in params.items():
        bad = arr[~np.isfinite(arr)]
        if bad.size:
            raise ControllerError(f"{name} must be finite, found {bad[0]}")


def _freeze(obj, **arrays: np.ndarray) -> None:
    """Set read-only array fields on a frozen dataclass instance."""
    for name, arr in arrays.items():
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


class Controller(ABC):
    """Common interface; all evaluation methods broadcast over leading axes.

    `linearize` is the one backward hook each concrete class defines;
    `control_wrt_omega` and `control_vjp_raw` are views of it.
    """

    n: int

    @property
    def n_features(self) -> int:
        """Length of the controller's feature view (0 for non-adaptive)."""
        return 0

    def select_features(self, phi: np.ndarray | None) -> np.ndarray | None:
        """Pick this controller's feature view out of a full basis evaluation,
        feature axis first, (m + 1,) + omega.shape.

        The constant-1 feature is the last basis feature by module contract.
        """
        return None

    @abstractmethod
    def control(
        self,
        omega: np.ndarray,
        phi: np.ndarray | None = None,
        a_hat: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """u at frequencies omega (..., n), written into `out` when given; an
        adaptive controller also takes its feature view phi and estimates
        a_hat, both (l,) + omega.shape."""

    @abstractmethod
    def linearize(self, omega, phi=None, a_hat=None):
        """`control` at omega with its derivative and pull-back, as (u,
        du_domega, vjp): du_domega is the elementwise du_i/domega_i (left
        derivative at kinks) and vjp(bar_u), for a bar_u of omega's shape,
        the raw gradient of sum(bar_u * u), summed over leading axes."""

    def control_wrt_omega(self, omega: np.ndarray) -> np.ndarray:
        """du_i/domega_i at omega, the second item of `linearize`."""
        return self.linearize(omega)[1]

    def control_vjp_raw(self, omega: np.ndarray, bar_u: np.ndarray) -> np.ndarray:
        """d(sum bar_u * u)/d(raw) through `linearize`, with omega and bar_u
        broadcast against each other."""
        omega, bar_u = np.broadcast_arrays(
            np.asarray(omega, dtype=float), np.asarray(bar_u, dtype=float)
        )
        return self.linearize(omega)[2](bar_u)

    @abstractmethod
    def raw_parameters(self) -> np.ndarray: ...

    @abstractmethod
    def with_raw_parameters(self, raw: np.ndarray) -> "Controller": ...

    def control_cached(
        self,
        omega: np.ndarray,
        phi: np.ndarray | None = None,
        a_hat: np.ndarray | None = None,
    ) -> tuple[np.ndarray, object]:
        """`control` plus an empty cache slot; `perfbench/spans.py` wraps this name."""
        return self.control(omega, phi, a_hat), None

    def adaptation(self, omega: np.ndarray, phi: np.ndarray, out=None) -> np.ndarray:
        """Estimate rates d(ahat)/dt, (l,) + omega.shape, written into `out` when given."""
        raise ControllerError("controller has no adaptation dynamics")

    def _check_raw(self, raw: np.ndarray, size: int) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (size,):
            raise ControllerError(
                f"expected raw parameter vector of length {size}, got {raw.shape}"
            )
        return raw


@dataclass(frozen=True, eq=False)
class DroopController(Controller):
    """Proportional feedback u_i = gain_i * omega_i with gain_i = softplus(raw) > 0."""

    raw_gain: np.ndarray
    _gains: np.ndarray = field(init=False, repr=False)
    _dgains: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        raw = np.ascontiguousarray(self.raw_gain, dtype=float)
        if raw.ndim != 1 or raw.size == 0:
            raise ControllerError("raw_gain must be a non-empty 1-d array")
        _require_finite(raw_gain=raw)
        _freeze(self, raw_gain=raw, _gains=softplus(raw), _dgains=sigmoid(raw))

    @classmethod
    def from_gains(cls, gains: np.ndarray) -> "DroopController":
        gains = np.asarray(gains, dtype=float)
        if np.any(gains <= 0):
            raise ControllerError("droop gains must be positive")
        return cls(inv_softplus(gains))

    @classmethod
    def initial(cls, n: int, gain: float = 0.5) -> "DroopController":
        return cls.from_gains(np.full(n, gain))

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.raw_gain.size

    @property
    def gains(self) -> np.ndarray:
        return self._gains

    def control(self, omega, phi=None, a_hat=None, out=None):
        return np.multiply(self.gains, omega, out=out)

    def linearize(self, omega, phi=None, a_hat=None):
        vjp = lambda bar_u: (bar_u * omega).reshape(-1, self.n).sum(axis=0) * self._dgains
        return self.control(omega), np.broadcast_to(self.gains, np.shape(omega)), vjp

    def raw_parameters(self):
        return self.raw_gain.copy()

    def with_raw_parameters(self, raw):
        return DroopController(self._check_raw(raw, self.n))


@dataclass(frozen=True, eq=False)
class MonotonePWLController(Controller):
    """Monotone piecewise-linear feedback anchored at the origin.

    A shared, strictly increasing breakpoint grid b_1 < ... < b_m splits the
    frequency axis into m+1 segments; bus i has segment slopes
    softplus(raw_slopes[i]) >= 0, always strictly positive, so the response
    is nondecreasing with a stabilizing contribution everywhere.  The value
    is the sum of signed segment overlaps

        u_i(w) = sum_j slope_ij * (clip(w, lo_j, hi_j) - clip(0, lo_j, hi_j)),

    evaluated through a per-segment table: with r_s = clip(0, lo_s, hi_s),
    the point of segment s nearest the origin, u_i(w) = U_is +
    slope_is * (w - r_s) for w in segment s, where U_is = u_i(r_s).  The
    origin is its own r_s and U is zero there, so u_i(0) = 0 stays exact.
    The outer segments extend without bound.  Evaluation and the slope VJP
    are a segment lookup and a scatter-add, never an (..., n, m+1) tensor.
    """

    breakpoints: np.ndarray
    raw_slopes: np.ndarray
    _refs: np.ndarray = field(init=False, repr=False)
    _overlap: np.ndarray = field(init=False, repr=False)
    _slopes: np.ndarray = field(init=False, repr=False)
    _dslopes: np.ndarray = field(init=False, repr=False)
    _values: np.ndarray = field(init=False, repr=False)
    _bus_offset: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        bp = np.ascontiguousarray(self.breakpoints, dtype=float)
        raw = np.ascontiguousarray(self.raw_slopes, dtype=float)
        if bp.ndim != 1 or bp.size == 0:
            raise ControllerError("breakpoints must be a non-empty 1-d array")
        _require_finite(breakpoints=bp, raw_slopes=raw)
        if np.any(np.diff(bp) <= 0):
            raise ControllerError("breakpoints must be strictly increasing")
        if raw.ndim != 2 or raw.shape[1] != bp.size + 1:
            raise ControllerError(
                "raw_slopes must have shape (n, len(breakpoints) + 1)"
            )
        lo = np.concatenate(([-np.inf], bp))
        hi = np.concatenate((bp, [np.inf]))
        ref = np.clip(0.0, lo, hi)
        # overlap[s, j]: overlap of [0, ref_s] with segment j (zero for j = s)
        overlap = np.clip(ref[:, None], lo, hi) - ref
        slopes = softplus(raw)
        m1 = bp.size + 1
        _freeze(
            self, breakpoints=bp, raw_slopes=raw, _overlap=overlap,
            _slopes=slopes, _dslopes=sigmoid(raw), _values=slopes @ overlap.T,
            _bus_offset=np.arange(0, raw.shape[0] * m1, m1), _refs=np.tile(ref, raw.shape[0]),
        )

    @classmethod
    def initial(cls, n: int, slope: float = 0.5) -> "MonotonePWLController":
        """Slope `slope` on every segment of the `default_breakpoints` grid."""
        bp = default_breakpoints()
        raw = np.full((n, bp.size + 1), float(inv_softplus(slope)))
        return cls(bp, raw)

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.raw_slopes.shape[0]

    @property
    def slopes(self) -> np.ndarray:
        return self._slopes

    def _segments(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat (bus, segment) table index of each omega, and omega's offset
        from that segment's reference point."""
        flat = self.breakpoints.searchsorted(omega, side="left") + self._bus_offset
        return flat, omega - self._refs.take(flat)

    def _value(self, flat, offset, out=None):
        return np.add(self._values.take(flat), self._slopes.take(flat) * offset, out=out)

    def control(self, omega, phi=None, a_hat=None, out=None):
        return self._value(*self._segments(omega), out)

    def linearize(self, omega, phi=None, a_hat=None):
        flat, offset = self._segments(omega)
        return (
            self._value(flat, offset),
            self._slopes.take(flat),
            lambda bar_u: self._slope_vjp(flat, offset, bar_u),
        )

    def raw_parameters(self):
        return self.raw_slopes.ravel().copy()

    def with_raw_parameters(self, raw):
        raw = self._check_raw(raw, self.raw_slopes.size)
        return MonotonePWLController(self.breakpoints, raw.reshape(self.raw_slopes.shape))

    def _slope_vjp(self, flat, offset, bar):
        # d u_i / d slope_ij = overlap[s, j] + [j = s] * (omega - ref_s)
        flat, offset, bar = flat.ravel(), offset.ravel(), np.ravel(bar)
        size, shape = self._slopes.size, self._slopes.shape
        total = np.bincount(flat, bar, size).reshape(shape)
        moment = np.bincount(flat, bar * offset, size).reshape(shape)
        return ((total.dot(self._overlap) + moment) * self._dslopes).ravel()


@dataclass(frozen=True, eq=False)
class LinearController(Controller):
    """Unconstrained linear feedback u_i = gain_i * omega_i.

    Unlike DroopController the gain may be negative or zero, so instances are
    not guaranteed to be in the certifiable class; this exists so the
    certification path can be exercised against controllers that fail it.
    """

    gain: np.ndarray

    def __post_init__(self) -> None:
        g = np.ascontiguousarray(self.gain, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ControllerError("gain must be a non-empty 1-d array")
        _require_finite(gain=g)
        _freeze(self, gain=g)

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.gain.size

    def control(self, omega, phi=None, a_hat=None, out=None):
        return np.multiply(self.gain, omega, out=out)

    def linearize(self, omega, phi=None, a_hat=None):
        vjp = lambda bar_u: (bar_u * omega).reshape(-1, self.n).sum(axis=0)
        return self.control(omega), np.broadcast_to(self.gain, np.shape(omega)), vjp

    def raw_parameters(self):
        return self.gain.copy()

    def with_raw_parameters(self, raw):
        return LinearController(self._check_raw(raw, self.n))


@dataclass(frozen=True, eq=False)
class AdaptiveController(Controller):
    """Base controller plus feature-linear adaptive term.

    `feature_mode` selects the view of the basis the controller sees:
    "basis" uses every column, "constant" only the trailing constant-1
    column (an integral term).  Adaptation rates are per bus and feature,
    rate = RATE_FLOOR + softplus(raw_rate), so A_i stays positive definite
    no matter where training drives the raw values.
    """

    base: Controller
    raw_rate: np.ndarray
    feature_mode: str = "basis"
    _rates: np.ndarray = field(init=False, repr=False)
    _rates_t: np.ndarray = field(init=False, repr=False)
    _drates: np.ndarray = field(init=False, repr=False)
    _n_base_raw: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.base, (AdaptiveController, SaturatedController)):
            raise ControllerError("adaptive base must be a plain static controller")
        raw = np.ascontiguousarray(self.raw_rate, dtype=float)
        if raw.ndim != 2 or raw.shape[0] != self.base.n or raw.shape[1] < 1:
            raise ControllerError("raw_rate must have shape (n_buses, n_features)")
        _require_finite(raw_rate=raw)
        if self.feature_mode not in ("basis", "constant"):
            raise ControllerError(f"unknown feature_mode {self.feature_mode!r}")
        if self.feature_mode == "constant" and raw.shape[1] != 1:
            raise ControllerError("constant feature mode implies a single feature")
        rates = RATE_FLOOR + softplus(raw)
        _freeze(self, raw_rate=raw, _rates=rates, _rates_t=rates.T.copy(), _drates=sigmoid(raw))
        object.__setattr__(self, "_n_base_raw", self.base.raw_parameters().size)

    @classmethod
    def initial(
        cls,
        base: Controller,
        n_features: int,
        rate: float = 2.0,
        feature_mode: str = "basis",
    ) -> "AdaptiveController":
        raw = np.full(
            (base.n, n_features), float(inv_softplus(rate - RATE_FLOOR))
        )
        return cls(base, raw, feature_mode)

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.base.n

    @property
    def n_features(self) -> int:  # type: ignore[override]
        return self.raw_rate.shape[1]

    @property
    def rates(self) -> np.ndarray:
        """Diagonal entries of A_i, one row per bus; every entry >= RATE_FLOOR."""
        return self._rates

    def constant_restriction(self) -> "AdaptiveController":
        """The same controller driven by the constant feature alone.

        Keeps the base and the trained constant-channel rates and drops the
        oscillatory channels, which turns the adaptive term into a pure
        integral term.  This is the right evaluation mode for scenarios whose
        net-load model has no oscillatory component.
        """
        return AdaptiveController(self.base, self.raw_rate[:, -1:], "constant")

    def select_features(self, phi):
        if phi is None:
            raise ControllerError("adaptive controller needs basis features")
        phi = np.asarray(phi, dtype=float)
        view = phi[-1:] if self.feature_mode == "constant" else phi
        if view.shape[0] != self.n_features:
            raise ControllerError(
                f"controller expects {self.n_features} features, basis provides "
                f"{view.shape[0]}"
            )
        return view

    def _check_view(self, phi, a_hat):
        if phi is None or a_hat is None:
            raise ControllerError("adaptive control needs phi and a_hat")
        phi = np.asarray(phi, dtype=float)
        a_hat = np.asarray(a_hat, dtype=float)
        if phi.shape[0] != a_hat.shape[0]:
            raise ControllerError(
                f"feature/estimate length mismatch: {phi.shape[0]} vs {a_hat.shape[0]}"
            )
        return phi, a_hat

    def _rates_like(self, omega: np.ndarray) -> np.ndarray:
        """The rates feature-first, (l, 1, ..., 1, n), broadcasting against phi."""
        return self._rates_t[(slice(None),) + (None,) * (omega.ndim - 1)]

    def control(self, omega, phi=None, a_hat=None, out=None):
        """base(omega) + sum_j phi_j ahat_j; phi and a_hat are (l,) + omega.shape."""
        phi, a_hat = self._check_view(phi, a_hat)
        return self._plus_estimates(self.base.control(omega, out=out), phi, a_hat)

    @staticmethod
    def _plus_estimates(u, phi, a_hat):
        # summed over the leading feature axis, one feature after another
        return np.add(u, np.add.reduce(phi * a_hat, 0), out=u)

    def linearize(self, omega, phi=None, a_hat=None):
        """The base's linearization plus the estimate term in u when phi and
        a_hat are given; neither derivative depends on them, and the rates
        get a zero gradient (they act through `adaptation` alone)."""
        u, du_domega, base_vjp = self.base.linearize(omega)
        if phi is not None or a_hat is not None:
            u = self._plus_estimates(u, *self._check_view(phi, a_hat))
        rates = np.zeros(self.raw_rate.size)
        return u, du_domega, lambda bar_u: np.concatenate([base_vjp(bar_u), rates])

    def adaptation(self, omega, phi, out=None):
        """d(ahat)/dt = omega_i * A_i phi_i, shape (l,) + omega.shape."""
        omega = np.asarray(omega, dtype=float)
        return np.multiply(omega * self._rates_like(omega), phi, out=out)

    @property
    def rate_block(self) -> slice:
        """Where the raw rates sit in the raw parameter vector (after the base's)."""
        return slice(self._n_base_raw, None)

    def adaptation_vjp(
        self, omega: np.ndarray, phi: np.ndarray, bar_da: np.ndarray
    ) -> np.ndarray:
        """VJP of `adaptation` for the rates: the gradient of the `rate_block`.

        phi and bar_da are (l,) + omega.shape; the products are summed over
        every leading axis of omega, so a caller can pass a block of steps at
        once.  Adaptation does not depend on the base parameters, so only the
        rate block of the raw gradient is returned, in the flat raw_rate order.
        """
        omega = np.asarray(omega, dtype=float)
        prod = np.asarray(bar_da, dtype=float) * omega
        prod *= phi  # in place: a block's product is its largest temporary
        bar_rate = prod.sum(axis=tuple(range(1, omega.ndim)))  # (l, n)
        return (bar_rate.T * self._drates).ravel()

    def adaptation_vjp_omega(self, phi: np.ndarray, bar_da: np.ndarray) -> np.ndarray:
        """VJP of `adaptation` for omega: sum_j bar_da_j A_j phi_j, phi.shape[1:]."""
        phi = np.asarray(phi, dtype=float)
        return (np.asarray(bar_da, dtype=float) * self._rates_like(phi[0]) * phi).sum(axis=0)

    def control_vjp_ahat(self, phi: np.ndarray, bar_u: np.ndarray) -> np.ndarray:
        """VJP of `control` for the estimates, (l,) + bar_u.shape."""
        return np.asarray(bar_u, dtype=float) * np.asarray(phi, dtype=float)

    def raw_parameters(self):
        return np.concatenate([self.base.raw_parameters(), self.raw_rate.ravel()])

    def with_raw_parameters(self, raw):
        nb = self._n_base_raw
        raw = self._check_raw(raw, nb + self.raw_rate.size)
        return AdaptiveController(
            self.base.with_raw_parameters(raw[:nb]),
            raw[nb:].reshape(self.raw_rate.shape),
            self.feature_mode,
        )


@dataclass(frozen=True, eq=False)
class SaturatedController(Controller):
    """Clip another controller's output to |u_i| <= u_max.

    Saturation is outside the certified controller class; `lyapunov.certify`
    refuses saturated controllers, and training through the clip is not
    supported.  `u_max` must be finite and positive.
    """

    inner: Controller
    u_max: float

    def __post_init__(self) -> None:
        _require_finite(u_max=np.asarray(self.u_max))
        if not self.u_max > 0:
            raise ControllerError("u_max must be positive")
        if isinstance(self.inner, SaturatedController):
            raise ControllerError("nested saturation")

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.inner.n

    @property
    def n_features(self) -> int:  # type: ignore[override]
        return self.inner.n_features

    def select_features(self, phi):
        return self.inner.select_features(phi)

    def adaptation(self, omega, phi, out=None):
        return self.inner.adaptation(omega, phi, out)

    def control(self, omega, phi=None, a_hat=None, out=None):
        u = self.inner.control(omega, phi, a_hat, out)
        return np.clip(u, -self.u_max, self.u_max, out=u)

    def linearize(self, omega, phi=None, a_hat=None):
        raise ControllerError("training through saturation is not supported")

    def raw_parameters(self):
        return self.inner.raw_parameters()

    def with_raw_parameters(self, raw):
        return SaturatedController(self.inner.with_raw_parameters(raw), self.u_max)


def controller_to_dict(ctrl: Controller) -> dict:
    if isinstance(ctrl, DroopController):
        return {"type": "droop", "raw_gain": ctrl.raw_gain.tolist()}
    if isinstance(ctrl, MonotonePWLController):
        return {
            "type": "pwl",
            "breakpoints": ctrl.breakpoints.tolist(),
            "raw_slopes": ctrl.raw_slopes.tolist(),
        }
    if isinstance(ctrl, LinearController):
        return {"type": "linear", "gain": ctrl.gain.tolist()}
    if isinstance(ctrl, AdaptiveController):
        return {
            "type": "adaptive",
            "features": ctrl.feature_mode,
            "raw_rate": ctrl.raw_rate.tolist(),
            "base": controller_to_dict(ctrl.base),
        }
    if isinstance(ctrl, SaturatedController):
        return {
            "type": "saturated",
            "u_max": ctrl.u_max,
            "base": controller_to_dict(ctrl.inner),
        }
    raise ControllerError(f"cannot serialize controller of type {type(ctrl).__name__}")


def controller_from_dict(doc: dict) -> Controller:
    try:
        kind = doc["type"]
        if kind == "droop":
            return DroopController(np.array(doc["raw_gain"], dtype=float))
        if kind == "pwl":
            return MonotonePWLController(
                np.array(doc["breakpoints"], dtype=float),
                np.array(doc["raw_slopes"], dtype=float),
            )
        if kind == "linear":
            return LinearController(np.array(doc["gain"], dtype=float))
        if kind == "adaptive":
            return AdaptiveController(
                controller_from_dict(doc["base"]),
                np.array(doc["raw_rate"], dtype=float),
                doc.get("features", "basis"),
            )
        if kind == "saturated":
            return SaturatedController(
                controller_from_dict(doc["base"]), float(doc["u_max"])
            )
    except (KeyError, TypeError) as exc:
        raise ControllerError(f"malformed controller document: {exc!r}") from None
    raise ControllerError(f"unknown controller type {kind!r}")


def save_controller(ctrl: Controller, path: str | Path) -> None:
    Path(path).write_text(json.dumps(controller_to_dict(ctrl), indent=1) + "\n")

