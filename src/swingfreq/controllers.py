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
vector (`raw_parameters` / `with_raw_parameters`) plus the vector-Jacobian
hooks the training module needs.
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
    "load_controller",
    "save_controller",
    "softplus",
]

RATE_FLOOR = 1e-4


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


def default_breakpoints(m: int = 19, width: float = 1.0) -> np.ndarray:
    """Uniform interior breakpoints giving m+1 segments over [-width, width]."""
    return np.linspace(-width, width, m + 2)[1:-1].copy()


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


def _dot_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # same result as (a * b).sum(-1): ufunc reduction is sequential below
    # 8 lanes, and the unrolled form skips the short-axis iterator overhead
    if a.shape[-1] >= 8:
        return (a * b).sum(axis=-1)
    acc = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        acc = acc + a[..., j] * b[..., j]
    return acc


class Controller(ABC):
    """Common interface; all evaluation methods broadcast over leading axes."""

    n: int

    @property
    def n_features(self) -> int:
        """Length of the controller's feature view (0 for non-adaptive)."""
        return 0

    def select_features(self, phi: np.ndarray | None) -> np.ndarray | None:
        """Pick this controller's feature view out of a full basis evaluation.

        The constant-1 feature is the last basis column by module contract.
        """
        return None

    @abstractmethod
    def control(
        self,
        omega: np.ndarray,
        phi: np.ndarray | None = None,
        a_hat: np.ndarray | None = None,
    ) -> np.ndarray: ...

    @abstractmethod
    def control_wrt_omega(self, omega: np.ndarray) -> np.ndarray:
        """Elementwise derivative du_i/domega_i (left derivative at kinks)."""

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

    @abstractmethod
    def control_vjp_raw(self, omega: np.ndarray, bar_u: np.ndarray) -> np.ndarray:
        """Accumulate d(sum bar_u * u)/d(raw), summing over leading axes."""

    def adaptation(self, omega: np.ndarray, phi: np.ndarray) -> np.ndarray:
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

    def control(self, omega, phi=None, a_hat=None):
        return self.gains * np.asarray(omega, dtype=float)

    def control_wrt_omega(self, omega):
        return np.broadcast_to(self.gains, np.shape(omega))

    def raw_parameters(self):
        return self.raw_gain.copy()

    def with_raw_parameters(self, raw):
        return DroopController(self._check_raw(raw, self.n))

    def control_vjp_raw(self, omega, bar_u):
        contrib = np.asarray(bar_u, dtype=float) * np.asarray(omega, dtype=float)
        flat = contrib.reshape(-1, self.n).sum(axis=0)
        return flat * self._dgains


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
    _ref: np.ndarray = field(init=False, repr=False)
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
            self, breakpoints=bp, raw_slopes=raw, _ref=ref, _overlap=overlap,
            _slopes=slopes, _dslopes=sigmoid(raw), _values=slopes @ overlap.T,
            _bus_offset=np.arange(0, raw.shape[0] * m1, m1),
        )

    @classmethod
    def initial(
        cls, n: int, slope: float = 0.5, breakpoints: np.ndarray | None = None
    ) -> "MonotonePWLController":
        bp = default_breakpoints() if breakpoints is None else np.asarray(breakpoints)
        raw = np.full((n, bp.size + 1), float(inv_softplus(slope)))
        return cls(bp, raw)

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.raw_slopes.shape[0]

    @property
    def slopes(self) -> np.ndarray:
        return self._slopes

    def _segments(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Segment index of each omega and its flat (bus, segment) table index."""
        seg = self.breakpoints.searchsorted(omega, side="left")
        return seg, seg + self._bus_offset

    def control(self, omega, phi=None, a_hat=None):
        omega = np.asarray(omega, dtype=float)
        seg, flat = self._segments(omega)
        offset = omega - self._ref.take(seg)
        return self._values.take(flat) + self._slopes.take(flat) * offset

    def control_wrt_omega(self, omega):
        return self._slopes.take(self._segments(np.asarray(omega, dtype=float))[1])

    def raw_parameters(self):
        return self.raw_slopes.ravel().copy()

    def with_raw_parameters(self, raw):
        raw = self._check_raw(raw, self.raw_slopes.size)
        return MonotonePWLController(self.breakpoints, raw.reshape(self.raw_slopes.shape))

    def control_vjp_raw(self, omega, bar_u):
        # d u_i / d slope_ij = overlap[s, j] + [j = s] * (omega - ref_s)
        omega = np.asarray(omega, dtype=float)
        bar = np.asarray(bar_u, dtype=float)
        if bar.shape != omega.shape:
            omega, bar = np.broadcast_arrays(omega, bar)
        seg, flat = self._segments(omega)
        flat, bar = flat.ravel(), bar.ravel()
        offset = (omega - self._ref.take(seg)).ravel()
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

    def control(self, omega, phi=None, a_hat=None):
        return self.gain * np.asarray(omega, dtype=float)

    def control_wrt_omega(self, omega):
        return np.broadcast_to(self.gain, np.shape(omega))

    def raw_parameters(self):
        return self.gain.copy()

    def with_raw_parameters(self, raw):
        return LinearController(self._check_raw(raw, self.n))

    def control_vjp_raw(self, omega, bar_u):
        contrib = np.asarray(bar_u, dtype=float) * np.asarray(omega, dtype=float)
        return contrib.reshape(-1, self.n).sum(axis=0)


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
        _freeze(self, raw_rate=raw, _rates=RATE_FLOOR + softplus(raw), _drates=sigmoid(raw))
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
        view = phi[..., -1:] if self.feature_mode == "constant" else phi
        if view.shape[-1] != self.n_features:
            raise ControllerError(
                f"controller expects {self.n_features} features, basis provides "
                f"{view.shape[-1]}"
            )
        return view

    def _check_view(self, phi, a_hat):
        if phi is None or a_hat is None:
            raise ControllerError("adaptive control needs phi and a_hat")
        phi = np.asarray(phi, dtype=float)
        a_hat = np.asarray(a_hat, dtype=float)
        if phi.shape[-1] != a_hat.shape[-1]:
            raise ControllerError(
                f"feature/estimate length mismatch: {phi.shape[-1]} vs {a_hat.shape[-1]}"
            )
        return phi, a_hat

    def control(self, omega, phi=None, a_hat=None):
        phi, a_hat = self._check_view(phi, a_hat)
        return self.base.control(omega) + _dot_last(phi, a_hat)

    def control_wrt_omega(self, omega):
        return self.base.control_wrt_omega(omega)

    def adaptation(self, omega, phi):
        """d(ahat)/dt = omega_i * A_i phi_i, shape (..., n, n_features)."""
        omega = np.asarray(omega, dtype=float)
        return omega[..., None] * self.rates * np.asarray(phi, dtype=float)

    @property
    def rate_block(self) -> slice:
        """Where the raw rates sit in the raw parameter vector (after the base's)."""
        return slice(self._n_base_raw, None)

    def adaptation_vjp(
        self, omega: np.ndarray, phi: np.ndarray, bar_da: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """VJP of `adaptation`: returns (gradient of the `rate_block`, bar_omega).

        Adaptation does not depend on the base parameters, so only the rate
        block of the raw gradient is returned, in the flat raw_rate order.
        """
        omega = np.asarray(omega, dtype=float)
        phi = np.asarray(phi, dtype=float)
        bar_da = np.asarray(bar_da, dtype=float)
        bar_omega = _dot_last(bar_da * self.rates, phi)
        bar_rate = (bar_da * omega[..., None] * phi).reshape(
            -1, *self.raw_rate.shape
        ).sum(axis=0)
        return (bar_rate * self._drates).ravel(), bar_omega

    def control_vjp_ahat(self, phi: np.ndarray, bar_u: np.ndarray) -> np.ndarray:
        return np.asarray(bar_u, dtype=float)[..., None] * np.asarray(phi, dtype=float)

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

    def control_vjp_raw(self, omega, bar_u):
        base_grad = self.base.control_vjp_raw(omega, bar_u)
        return np.concatenate([base_grad, np.zeros(self.raw_rate.size)])


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

    def adaptation(self, omega, phi):
        return self.inner.adaptation(omega, phi)

    def control(self, omega, phi=None, a_hat=None):
        return np.clip(self.inner.control(omega, phi, a_hat), -self.u_max, self.u_max)

    def control_wrt_omega(self, omega):
        raise ControllerError("training through saturation is not supported")

    def raw_parameters(self):
        return self.inner.raw_parameters()

    def with_raw_parameters(self, raw):
        return SaturatedController(self.inner.with_raw_parameters(raw), self.u_max)

    def control_vjp_raw(self, omega, bar_u):
        raise ControllerError("training through saturation is not supported")


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


def load_controller(path: str | Path) -> Controller:
    path = Path(path)
    try:
        return controller_from_dict(json.loads(path.read_text()))
    except FileNotFoundError:
        raise ControllerError(f"controller file not found: {path}") from None
    except (json.JSONDecodeError, ControllerError) as exc:
        raise ControllerError(f"malformed controller file {path}: {exc}") from None
