"""Gaussian-process kernel of a random deep network.

For inputs on the sphere ||x||^2 = n the kernel is K(x, y) = Q * F(x.y / n),
where Q and F come from the layer recursions

    Q_1 = sw2 + sb2,          Q_l = sw2 * E[tau(sqrt(Q_{l-1}) z)^2] + sb2,
    F_1(t) = (sw2 t + sb2) / (sw2 + sb2),
    F_l(t) = (sw2 * E[tau(u) tau(v)] + sb2) / Q_l,

with (u, v) centered bivariate normal of variance Q_{l-1} and correlation
F_{l-1}(t). For ReLU the cross moment has the arccosine-kernel closed form
(Cho and Saul 2009)

    E[tau(u) tau(v)] = Q_{l-1} * Psi(c) / 2,
    Psi(c) = (sqrt(1 - c^2) + (pi - arccos c) c) / pi,

so F_l(t) = (Q_{l-1} sw2 Psi(F_{l-1}(t)) + 2 sb2) / (Q_{l-1} sw2 + 2 sb2).

Generic activations are handled by quadrature. The one-dimensional moments
use Gauss-Hermite. The two-dimensional cross moment is computed in polar
coordinates: with (z, w) standard normal and u = sqrt(Q) z,
v = sqrt(Q)(c z + s w),

    E[tau(u) tau(v)] = (1/2pi) Int_0^2pi dtheta Int_0^inf dr r e^{-r^2/2}
                       tau(A(theta) r) tau(B(theta) r),

the radial integral becomes a Gauss-Laguerre sum under u = r^2/2 and the
angular integral is piecewise Gauss-Legendre with panels split at the rays
where A or B vanishes. Activation kinks at the origin lie exactly on those
rays, so the integrand is smooth on every panel and the rule converges
spectrally; a plain tensor Gauss-Hermite rule only converges algebraically
there and cannot reach the 1e-6 agreement this module promises. Every
quadrature is evaluated at two orders and must agree to 1e-8 relative
(scaled by max(|value|, Q)) or a QuadratureError is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_laguerre

from .activations import Activation, get_activation
from .bitstrings import BitString
from .errors import ConfigError, NumericalFaultError, QuadratureError

# Scalar Gauss-Hermite orders need headroom for analytic activations whose
# complex poles sit near the real axis (tanh at q ~ 2 converges slowly).
GH_ORDER = 128
GH_ORDER_CHECK = 192
POLAR_RADIAL_ORDER = 64
POLAR_RADIAL_ORDER_CHECK = 96
POLAR_ANGULAR_ORDER = 48
POLAR_ANGULAR_ORDER_CHECK = 64
QUAD_RTOL = 1e-8

UNIFORM_GRID_POINTS = 2001
REFINEMENT_OFFSETS = tuple(10.0 ** -k for k in range(1, 9))

_T_TOL = 1e-12
_F_TOL = 1e-9
_DEGENERATE_S2 = 1e-300
_FD_STEP = 1e-6
_CHUNK = 256

ArrayLike = Union[float, np.ndarray]


def uniform_grid() -> np.ndarray:
    """The 2001-point uniform grid on [-1, 1]."""
    return np.linspace(-1.0, 1.0, UNIFORM_GRID_POINTS)


def default_grid() -> np.ndarray:
    """Uniform grid plus geometric refinement near t = 1 (1 - t = 1e-1..1e-8),
    because all the short-distance analysis lives in the t -> 1 regime."""
    refined = 1.0 - np.asarray(REFINEMENT_OFFSETS)
    return np.unique(np.concatenate([uniform_grid(), refined]))


def psi(t: ArrayLike) -> ArrayLike:
    """ReLU correlation update map Psi(t) = (sqrt(1-t^2) + (pi - arccos t) t) / pi.

    Inputs are clamped to [-1, 1]; values beyond 1e-12 outside are a fault.
    """
    scalar = np.isscalar(t)
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) > 1.0 + _T_TOL):
        raise NumericalFaultError(
            f"psi argument outside [-1, 1] beyond tolerance: max |t| = {np.max(np.abs(arr))}"
        )
    c = np.clip(arr, -1.0, 1.0)
    out = (np.sqrt(1.0 - c * c) + (math.pi - np.arccos(c)) * c) / math.pi
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# quadrature machinery (generic activations)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _herme_nodes(order: int) -> Tuple[np.ndarray, np.ndarray]:
    z, w = hermegauss(order)
    return z, w / math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=None)
def _laguerre_nodes(order: int) -> Tuple[np.ndarray, np.ndarray]:
    u, w = roots_laguerre(order)
    return np.sqrt(2.0 * u), w  # radial nodes r = sqrt(2u), weight e^{-u}


@lru_cache(maxsize=None)
def _legendre_nodes(order: int) -> Tuple[np.ndarray, np.ndarray]:
    return leggauss(order)


def _pair_moment_gh(act: Activation, q: float, sign: float, order: int) -> float:
    """E[tau(sqrt(q) z) tau(sign * sqrt(q) z)] for the perfectly correlated
    (degenerate) cases, by one-dimensional Gauss-Hermite."""
    z, w = _herme_nodes(order)
    u = math.sqrt(q) * z
    return float(w @ (act(u) * act(sign * u)))


def _second_moment(act: Activation, q: float) -> float:
    """Cross-checked E[tau(sqrt(q) z)^2]."""
    lo = _pair_moment_gh(act, q, 1.0, GH_ORDER)
    hi = _pair_moment_gh(act, q, 1.0, GH_ORDER_CHECK)
    if abs(lo - hi) > QUAD_RTOL * max(abs(hi), q):
        raise QuadratureError(
            f"second moment of {act.name} did not converge: "
            f"order {GH_ORDER} -> {lo:.16g}, order {GH_ORDER_CHECK} -> {hi:.16g}"
        )
    return hi


def _cross_moment_polar(
    act: Activation, q: float, c: np.ndarray, n_rad: int, n_ang: int
) -> np.ndarray:
    """Polar quadrature of E[tau(u) tau(v)] at correlations c (vectorized).

    Degenerate entries (1 - c^2 < 1e-300, i.e. c rounded to +-1) use the
    exact perfectly-correlated one-dimensional rule instead.
    """
    c = np.asarray(c, dtype=float)
    out = np.empty_like(c)
    s2 = 1.0 - c * c
    deg = s2 < _DEGENERATE_S2
    if np.any(deg):
        for sign in (1.0, -1.0):
            mask = deg & ((c >= 0.0) if sign > 0 else (c < 0.0))
            if np.any(mask):
                out[mask] = _pair_moment_gh(act, q, sign, GH_ORDER_CHECK)
    live = ~deg
    if not np.any(live):
        return out

    r, wu = _laguerre_nodes(n_rad)
    xg, wg = _legendre_nodes(n_ang)
    sq = math.sqrt(q)
    cl = c[live]
    sl = np.sqrt(s2[live])
    half = math.pi / 2.0
    buf = np.empty(cl.size)
    for start in range(0, cl.size, _CHUNK):
        cc = cl[start : start + _CHUNK]
        ss = sl[start : start + _CHUNK]
        # breakpoints: rays cos(theta) = 0 and c cos(theta) + s sin(theta) = 0
        th0 = np.mod(np.arctan2(-cc, ss), 2.0 * math.pi)
        bks = np.sort(
            np.stack(
                [np.full_like(cc, half), np.full_like(cc, 3.0 * half), th0, th0 + math.pi],
                axis=1,
            )
            % (2.0 * math.pi),
            axis=1,
        )
        lo = bks
        hi = np.concatenate([bks[:, 1:], bks[:, :1] + 2.0 * math.pi], axis=1)
        mid = 0.5 * (lo + hi)[:, :, None]
        rad = 0.5 * (hi - lo)[:, :, None]
        theta = (mid + rad * xg).reshape(cc.size, -1)  # (m, 4*n_ang)
        wth = (rad * wg).reshape(cc.size, -1)
        a = sq * np.cos(theta)
        b = sq * (cc[:, None] * np.cos(theta) + ss[:, None] * np.sin(theta))
        vals = act(a[:, :, None] * r) * act(b[:, :, None] * r)  # (m, K, n_rad)
        buf[start : start + cc.size] = np.einsum("mk,mkj,j->m", wth, vals, wu) / (
            2.0 * math.pi
        )
    out[live] = buf
    return out


def _cross_moment(act: Activation, q: float, c: np.ndarray) -> np.ndarray:
    """Two-order cross-checked E[tau(u) tau(v)] over an array of correlations."""
    lo = _cross_moment_polar(act, q, c, POLAR_RADIAL_ORDER, POLAR_ANGULAR_ORDER)
    hi = _cross_moment_polar(
        act, q, c, POLAR_RADIAL_ORDER_CHECK, POLAR_ANGULAR_ORDER_CHECK
    )
    gap = np.abs(lo - hi)
    scale = np.maximum(np.abs(hi), q)
    if np.any(gap > QUAD_RTOL * scale):
        worst = int(np.argmax(gap / scale))
        raise QuadratureError(
            f"cross moment of {act.name} did not converge at c={c.flat[worst]:.6g}: "
            f"gap {gap.flat[worst]:.3e}"
        )
    return hi


# ---------------------------------------------------------------------------
# recursions
# ---------------------------------------------------------------------------


def _resolve(activation: Union[str, Activation]) -> Activation:
    return get_activation(activation) if isinstance(activation, str) else activation


def _validate_variances(sigma_w2: float, sigma_b2: float, layers: int) -> None:
    if sigma_w2 < 0 or sigma_b2 < 0 or sigma_w2 + sigma_b2 <= 0:
        raise ConfigError(
            f"need sigma_w2, sigma_b2 >= 0 with positive sum, got ({sigma_w2}, {sigma_b2})"
        )
    if layers < 1:
        raise ConfigError(f"need at least one hidden layer, got {layers}")


def q_recursion(
    sigma_w2: float,
    sigma_b2: float,
    layers: int,
    activation: Union[str, Activation] = "relu",
) -> list:
    """Per-layer variances Q_1 .. Q_{L+1} for L hidden layers.

    ReLU uses the closed form E[ReLU(sqrt(Q) z)^2] = Q/2; other activations
    use cross-checked Gauss-Hermite.
    """
    act = _resolve(activation)
    _validate_variances(sigma_w2, sigma_b2, layers)
    qs = [sigma_w2 + sigma_b2]
    for _ in range(layers):
        if act.name == "relu":
            moment = qs[-1] / 2.0
        else:
            moment = _second_moment(act, qs[-1])
        q_next = sigma_w2 * moment + sigma_b2
        if not math.isfinite(q_next) or q_next <= 0.0:
            raise NumericalFaultError(
                f"layer variance degenerated to {q_next} (activation {act.name})"
            )
        qs.append(q_next)
    return qs


def _f_layers(
    sigma_w2: float,
    sigma_b2: float,
    qs: list,
    t: np.ndarray,
    act: Activation,
) -> np.ndarray:
    """Stack of F_1(t) .. F_{L+1}(t) for an array of overlaps t."""
    if np.any(np.abs(t) > 1.0 + _T_TOL):
        raise NumericalFaultError(
            f"overlap outside [-1, 1] beyond tolerance: max |t| = {np.max(np.abs(t))}"
        )
    t = np.clip(t, -1.0, 1.0)
    levels = [(sigma_w2 * t + sigma_b2) / (sigma_w2 + sigma_b2)]
    for l in range(1, len(qs)):
        q_prev, q_here = qs[l - 1], qs[l]
        prev = levels[-1]
        if act.name == "relu":
            f_next = (q_prev * sigma_w2 * psi(prev) + 2.0 * sigma_b2) / (
                q_prev * sigma_w2 + 2.0 * sigma_b2
            )
        else:
            moment = _cross_moment(act, q_prev, prev)
            f_next = (sigma_w2 * moment + sigma_b2) / q_here
        if np.any(np.abs(f_next) > 1.0 + _F_TOL):
            raise NumericalFaultError(
                f"|F_{l + 1}| exceeded 1 by more than {_F_TOL}: "
                f"max |F| = {np.max(np.abs(f_next))}"
            )
        levels.append(np.clip(f_next, -1.0, 1.0))
    return np.stack(levels)


def f_recursion(
    sigma_w2: float,
    sigma_b2: float,
    qs: list,
    t: ArrayLike,
    activation: Union[str, Activation] = "relu",
) -> Tuple[ArrayLike, np.ndarray]:
    """F(t) together with the per-layer stack F_1(t) .. F_{L+1}(t)."""
    act = _resolve(activation)
    scalar = np.isscalar(t)
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    stack = _f_layers(sigma_w2, sigma_b2, qs, arr, act)
    f = stack[-1]
    return (float(f[0]) if scalar else f), stack


def f_prime_1(
    sigma_w2: float,
    sigma_b2: float,
    qs: list,
    activation: Union[str, Activation] = "relu",
) -> float:
    """F'(1) by the exact layer recursion for ReLU,

        F'_1(1) = sw2/(sw2+sb2),
        F'_l(1) = [Q_{l-1} sw2 / (Q_{l-1} sw2 + 2 sb2)] F'_{l-1}(1),

    and by a one-sided Richardson finite difference (step 1e-6) otherwise.
    """
    act = _resolve(activation)
    if sigma_w2 == 0.0:
        raise NumericalFaultError(
            "F'(1) = 0: no signal propagation (sigma_w2 = 0 is degenerate)"
        )
    if act.name == "relu":
        fp = sigma_w2 / (sigma_w2 + sigma_b2)
        for q_prev in qs[:-1]:
            fp *= q_prev * sigma_w2 / (q_prev * sigma_w2 + 2.0 * sigma_b2)
        if not 0.0 < fp <= 1.0:
            raise NumericalFaultError(f"ReLU F'(1) = {fp} outside (0, 1]")
        return fp
    h = _FD_STEP
    f_vals, _ = f_recursion(
        sigma_w2, sigma_b2, qs, np.array([1.0, 1.0 - h, 1.0 - h / 2.0]), act
    )
    d_full = (f_vals[0] - f_vals[1]) / h
    d_half = (f_vals[0] - f_vals[2]) * 2.0 / h
    fp = 2.0 * d_half - d_full
    if not math.isfinite(fp) or fp <= 0.0:
        raise NumericalFaultError(
            f"finite-difference F'(1) unstable for {act.name}: got {fp}"
        )
    return fp


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelProfile:
    """Immutable kernel summary: Q_l, F on a grid, exact evaluation, F'(1)."""

    sigma_w2: float
    sigma_b2: float
    layers: int
    activation: str
    q_per_layer: Tuple[float, ...]
    f_prime_1: float
    grid_t: np.ndarray
    grid_f_layers: np.ndarray

    @property
    def q(self) -> float:
        """Output variance Q = Q_{L+1}."""
        return self.q_per_layer[-1]

    @property
    def f_grid(self) -> np.ndarray:
        """F sampled on grid_t."""
        return self.grid_f_layers[-1]

    def evaluate(self, t: ArrayLike) -> ArrayLike:
        """Exact recursive evaluation of F at arbitrary overlaps."""
        f, _ = f_recursion(
            self.sigma_w2, self.sigma_b2, list(self.q_per_layer), t, self.activation
        )
        return f


def build_profile(
    sigma_w2: float = 2.0,
    sigma_b2: float = 0.0,
    layers: int = 2,
    activation: Union[str, Activation] = "relu",
    grid_t: Optional[np.ndarray] = None,
) -> KernelProfile:
    """Run the recursions and tabulate F on the grid."""
    act = _resolve(activation)
    qs = q_recursion(sigma_w2, sigma_b2, layers, act)
    fp1 = f_prime_1(sigma_w2, sigma_b2, qs, act)
    grid = default_grid() if grid_t is None else np.asarray(grid_t, dtype=float)
    stack = _f_layers(sigma_w2, sigma_b2, qs, grid, act)
    grid = grid.copy()
    grid.flags.writeable = False
    stack.flags.writeable = False
    return KernelProfile(
        sigma_w2=float(sigma_w2),
        sigma_b2=float(sigma_b2),
        layers=int(layers),
        activation=act.name,
        q_per_layer=tuple(qs),
        f_prime_1=fp1,
        grid_t=grid,
        grid_f_layers=stack,
    )


def profile_for_config(config) -> KernelProfile:
    """Profile matching a NetworkConfig (widths are irrelevant to the kernel)."""
    return build_profile(
        sigma_w2=config.sigma_w2,
        sigma_b2=config.sigma_b2,
        layers=len(config.hidden_widths),
        activation=config.activation,
    )


def covariance(profile: KernelProfile, x: BitString, y: BitString) -> float:
    """K(x, y) = Q * F(x.y / n)."""
    if x.n != y.n:
        raise ConfigError(f"length mismatch: {x.n} vs {y.n}")
    return profile.q * float(profile.evaluate(x.overlap(y) / x.n))
