"""Gaussian-process kernel of a random deep network.

For inputs on the sphere ||x||^2 = n the kernel is K(x, y) = Q * F(x.y / n),
where Q and F come from the layer recursions

    Q_1 = sw2 + sb2,          Q_l = sw2 * E[tau(sqrt(Q_{l-1}) z)^2] + sb2,
    F_1(t) = (sw2 t + sb2) / (sw2 + sb2),
    F_l(t) = (sw2 * E[tau(u) tau(v)] + sb2) / Q_l,

with (u, v) centered bivariate normal of variance Q_{l-1} and correlation
F_{l-1}(t). The slope F'(1) follows from d/dc E[tau(u) tau(v)] =
Q_{l-1} E[tau'(u) tau'(v)] at c = 1 (the chi_1 of Poole et al. 2016 and
Schoenholz et al. 2017):

    F'_1(1) = sw2 / (sw2 + sb2),
    F'_l(1) = sw2 * Q_{l-1} E[tau'(sqrt(Q_{l-1}) z)^2] / Q_l * F'_{l-1}(1).

Each recursion has one body, fed by the activation's moment table: the
second moment E[tau(sqrt(q) z)^2], the cross moment E[tau(u) tau(v)] at
correlations c, and the slope q E[tau'(sqrt(q) z)^2]. The built-in RELU
(picked by identity, never by name) has the arccosine-kernel closed forms of
Cho and Saul 2009,

    second = q / 2,   cross = q * Psi(c) / 2,   slope = q / 2,
    Psi(c) = (sqrt(1 - c^2) + (pi - arccos c) c) / pi;

the built-in TANH gets the cross-checked quadratures below. A ReLU twin
under another name, or any other kinked activation, fails their check.

A KernelProfile holds Q_l and F'(1), which are all the checks of the paper
need besides F at a few overlaps; it evaluates F exactly, by the recursion,
at whatever overlaps it is asked for. Only `bitboundary kernel --out-csv`
tabulates F_1 .. F_{L+1} on default_grid().

Quadratures evaluate every rule at two orders that must agree to 1e-8
relative (scaled by max(|value|, Q); NaN never agrees) or a QuadratureError
is raised. The one-dimensional moments (E[tau^2], E[tau'^2] and
E[tau(u) tau(+-u)] at c = +-1) use Gauss-Hermite at orders 256 and 320; for
tanh they agree while every Q_l stays below about 3.67, which bounds the
tanh kernel: Q_l, F'(1) and F all build up to Q_1 ~ 3.67.

The cross moment at |c| < 1 is the Hermite series of Mehler's formula (the
dual activation of Daniely et al. 2016),

    E[tau(u) tau(v)] = sum_k a_k^2 c^k,   a_k = E[tau(sqrt(Q) z) h_k(z)],

with h_k the normalized Hermite polynomials, h_{k+1} = (z h_k - sqrt(k)
h_{k-1}) / sqrt(k + 1). The a_k come from the Gauss-Hermite nodes, 160 terms
at order 256 and 220 at order 320. For smooth activations such as tanh the
a_k decay fast and the series holds at every overlap, with an error uniform
in c: for |c| <= 1 the two orders differ by at most sum_k |Delta a_k^2|,
which for tanh stays below 3.4e-10 q wherever its Gauss-Hermite moments
converge. A kink makes the a_k decay only algebraically (ReLU:
a_k^2 ~ k^(-5/2)), so the two orders of a kinked activation's series
disagree and its cross moment is a QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real
from typing import Callable, NamedTuple, Tuple, Union

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.polynomial import polyval

from .activations import RELU, Activation, get_activation
from .errors import ConfigError, NumericalFaultError, QuadratureError, integer

# Gauss-Hermite orders of every one-dimensional moment. Analytic activations
# whose complex poles sit near the real axis converge slowly: tanh has poles
# at +-i pi / (2 sqrt(q)), and sech^4 converges more slowly than tanh^2.
# Orders 128/192 stop agreeing for tanh^2 at q ~ 2.73; 256/320 reach
# q ~ 3.67, where sech^4 fails first. hermegauss returns NaN weights from
# order ~376.
GH_ORDERS = (256, 320)
# Hermite-series terms at each of GH_ORDERS. The series' error is largest at
# c -> +-1, where it is the tail sum of a_k^2: for tanh at q = 3.67 the terms
# from 160 on sum to 1.1e-9, inside QUAD_RTOL * q, and from 220 on to 3e-11.
HERMITE_TERMS = (160, 220)
QUAD_RTOL = 1e-8

_T_TOL = 1e-12
_F_TOL = 1e-9
_DEGENERATE_S2 = 1e-300

ArrayLike = Union[float, np.ndarray]


def default_grid() -> np.ndarray:
    """The 2001-point uniform grid on [-1, 1] plus geometric refinement near
    t = 1 (1 - t = 1e-1..1e-8), because all the short-distance analysis lives
    in the t -> 1 regime."""
    refined = 1.0 - 10.0 ** -np.arange(1.0, 9.0)
    return np.unique(np.concatenate([np.linspace(-1.0, 1.0, 2001), refined]))


def overlap(h, n: int):
    """The overlap x.y / n = 1 - 2h/n of strings at Hamming distance h (int or array)."""
    return 1.0 - 2.0 * h / n


def _clip_unit(x: ArrayLike, tol: float, what: str) -> np.ndarray:
    """x clamped to [-1, 1]; an entry beyond 1 + tol in size, or a NaN, is a fault."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0 + tol):
        raise NumericalFaultError(
            f"{what} outside [-1, 1] by more than {tol}: max |x| = {np.max(np.abs(x))}"
        )
    return np.clip(x, -1.0, 1.0)


def psi(t: ArrayLike) -> ArrayLike:
    """ReLU correlation update map Psi(t) = (sqrt(1-t^2) + (pi - arccos t) t) / pi.

    Inputs are clamped to [-1, 1]; NaN, or a value beyond 1e-12 outside, is a fault.
    """
    scalar = np.isscalar(t)
    c = _clip_unit(t, _T_TOL, "psi argument")
    out = (np.sqrt(1.0 - c * c) + (math.pi - np.arccos(c)) * c) / math.pi
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# quadrature machinery (every activation but the built-in RELU)
# ---------------------------------------------------------------------------


def _agree(lo: ArrayLike, hi: ArrayLike, q: float) -> np.ndarray:
    """Whether each entry of two orders agrees to QUAD_RTOL * max(|hi|, q); NaN never does."""
    return np.abs(lo - hi) <= QUAD_RTOL * np.maximum(np.abs(hi), q)


# hermegauss is O(order^3), and one tanh profile asks for its nodes ~20 times
@lru_cache(maxsize=None)
def _herme_nodes(order: int) -> Tuple[np.ndarray, np.ndarray]:
    z, w = hermegauss(order)
    return z, w / math.sqrt(2.0 * math.pi)


def _gh_moment(what: str, g, q: float) -> float:
    """E[g(sqrt(q) z)] by Gauss-Hermite at two orders that must agree."""
    lo, hi = (float(w @ g(math.sqrt(q) * z)) for z, w in map(_herme_nodes, GH_ORDERS))
    if not _agree(lo, hi, q):
        raise QuadratureError(
            f"{what} did not converge: "
            f"order {GH_ORDERS[0]} -> {lo:.16g}, order {GH_ORDERS[1]} -> {hi:.16g}"
        )
    return hi


def _second_moment(act: Activation, q: float) -> float:
    """E[tau(sqrt(q) z)^2], which is also E[tau(u) tau(v)] at c = 1."""
    return _gh_moment(f"second moment of {act.name}", lambda u: act(u) ** 2, q)


def _hermite_power(act: Activation, q: float, order: int, terms: int) -> np.ndarray:
    """Squared normalized Hermite coefficients a_k^2, k < terms, of
    tau(sqrt(q) z), from Gauss-Hermite at `order`."""
    z, w = _herme_nodes(order)
    fw = w * act(math.sqrt(q) * z)
    a = np.empty(terms)
    h_prev, h = np.zeros_like(z), np.ones_like(z)
    for k in range(terms):
        a[k] = fw @ h
        h_prev, h = h, (z * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1)
    return a * a


def _cross_moment(act: Activation, q: float, c: np.ndarray) -> np.ndarray:
    """Cross-checked E[tau(u) tau(v)] over an array of correlations.

    Entries with c rounded to +-1 (1 - c^2 < 1e-300) take a one-dimensional
    moment: at c = 1 the second moment itself, so F(1) = 1 exactly, and at
    c = -1 the pair moment E[tau(u) tau(-u)]. Every other entry takes the
    Hermite series, whose two orders must agree.
    """
    c = np.asarray(c, dtype=float)
    out = np.empty_like(c)
    deg = 1.0 - c * c < _DEGENERATE_S2
    up, down = deg & (c >= 0.0), deg & (c < 0.0)
    if np.any(up):
        out[up] = _second_moment(act, q)
    if np.any(down):
        out[down] = _gh_moment(f"pair moment of {act.name}", lambda u: act(u) * act(-u), q)
    cl = c[~deg]
    rules = zip(GH_ORDERS, HERMITE_TERMS)
    lo, hi = (polyval(cl, _hermite_power(act, q, order, terms)) for order, terms in rules)
    if not np.all(_agree(lo, hi, q)):
        gap = np.abs(lo - hi)
        worst = int(np.argmax(gap / np.maximum(np.abs(hi), q)))  # argmax picks a NaN first
        raise QuadratureError(
            f"cross moment of {act.name} did not converge at "
            f"c={float(cl[worst])!r}, q={float(q)!r}: gap {gap[worst]:.3e}"
        )
    out[~deg] = hi
    return out


# ---------------------------------------------------------------------------
# recursions
# ---------------------------------------------------------------------------


class _Moments(NamedTuple):
    """The three Gaussian moments of an activation the recursions consume."""

    second: Callable[[float], float]  # E[tau(sqrt(q) z)^2]
    cross: Callable[[float, np.ndarray], np.ndarray]  # E[tau(u) tau(v)] at c
    slope: Callable[[float], float]  # q E[tau'(sqrt(q) z)^2]


def _moments(act: Activation) -> _Moments:
    """Closed forms for the built-in RELU object, quadrature for any other."""
    if act is RELU:
        return _Moments(lambda q: q / 2.0, lambda q, c: q * psi(c) / 2.0, lambda q: q / 2.0)
    return _Moments(
        lambda q: _second_moment(act, q),
        lambda q, c: _cross_moment(act, q, c),
        lambda q: _gh_moment(
            f"derivative moment of {act.name}",
            lambda u: q * np.asarray(act.derivative(u), dtype=float) ** 2,
            q,
        ),
    )


def validate_variances(sigma_w2: float, sigma_b2: float) -> Tuple[float, float]:
    """The variance rule of every config: two real numbers, not bools, finite,
    >= 0 and with a positive sum. Returns them as Python floats."""
    pair = (sigma_w2, sigma_b2)
    real = all(isinstance(v, Real) and not isinstance(v, bool) for v in pair)
    try:
        sw2, sb2 = map(float, pair) if real else (math.nan, math.nan)
    except OverflowError:  # an int beyond the float range
        sw2 = sb2 = math.inf
    if not (math.isfinite(sw2) and math.isfinite(sb2)) or sw2 < 0 or sb2 < 0 or sw2 + sb2 <= 0:
        raise ConfigError(
            f"need real, finite sigma_w2, sigma_b2 >= 0 with positive sum, got {pair!r}"
        )
    return sw2, sb2


def q_recursion(
    sigma_w2: float,
    sigma_b2: float,
    layers: int,
    act: Activation,
) -> list:
    """Per-layer variances Q_1 .. Q_{L+1} for L hidden layers."""
    validate_variances(sigma_w2, sigma_b2)
    layers = integer("layers", layers)
    if layers < 1:
        raise ConfigError(f"need at least one hidden layer, got {layers}")
    second = _moments(act).second
    qs = [sigma_w2 + sigma_b2]
    for _ in range(layers):
        q_next = sigma_w2 * second(qs[-1]) + sigma_b2
        if not math.isfinite(q_next) or q_next <= 0.0:
            raise NumericalFaultError(
                f"layer variance degenerated to {q_next} (activation {act.name})"
            )
        qs.append(q_next)
    return qs


def f_recursion(
    sigma_w2: float,
    sigma_b2: float,
    qs: list,
    t: ArrayLike,
    act: Activation,
) -> Tuple[ArrayLike, np.ndarray]:
    """F(t) together with the per-layer stack F_1(t) .. F_{L+1}(t)."""
    cross = _moments(act).cross
    scalar = np.isscalar(t)
    t = _clip_unit(np.atleast_1d(t), _T_TOL, "overlap")
    levels = [(sigma_w2 * t + sigma_b2) / (sigma_w2 + sigma_b2)]
    for l in range(1, len(qs)):
        f_next = (sigma_w2 * cross(qs[l - 1], levels[-1]) + sigma_b2) / qs[l]
        levels.append(_clip_unit(f_next, _F_TOL, f"F_{l + 1}"))
    stack = np.stack(levels)
    return (float(stack[-1, 0]) if scalar else stack[-1]), stack


def f_prime_1(
    sigma_w2: float,
    sigma_b2: float,
    qs: list,
    act: Activation,
) -> float:
    """F'(1) by the exact layer recursion of the module docstring."""
    if sigma_w2 == 0.0:
        raise NumericalFaultError("F'(1) = 0: no signal propagation (sigma_w2 = 0 is degenerate)")
    slope = _moments(act).slope
    fp = sigma_w2 / (sigma_w2 + sigma_b2)
    for q_prev, q_here in zip(qs[:-1], qs[1:]):
        fp *= sigma_w2 * slope(q_prev) / q_here
    if act is RELU and not 0.0 < fp <= 1.0:
        raise NumericalFaultError(f"ReLU F'(1) = {fp} outside (0, 1]")
    if not math.isfinite(fp) or fp <= 0.0:
        raise NumericalFaultError(f"F'(1) of {act.name} is not positive: got {fp}")
    return fp


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelProfile:
    """Immutable kernel summary: Q_l, F'(1) and exact evaluation of F."""

    sigma_w2: float
    sigma_b2: float
    layers: int
    activation: str
    q_per_layer: Tuple[float, ...]
    f_prime_1: float

    @property
    def q(self) -> float:
        """Output variance Q = Q_{L+1}."""
        return self.q_per_layer[-1]

    def evaluate(self, t: ArrayLike) -> ArrayLike:
        """Exact recursive evaluation of F at arbitrary overlaps."""
        act = get_activation(self.activation)
        f, _ = f_recursion(self.sigma_w2, self.sigma_b2, list(self.q_per_layer), t, act)
        return f


def build_profile(
    sigma_w2: float = 2.0,
    sigma_b2: float = 0.0,
    layers: int = 2,
    activation: str = "relu",
) -> KernelProfile:
    """Run the Q and F'(1) recursions; F is evaluated on demand.

    The activation is a name, relu or tanh, resolved once here and again
    wherever the profile evaluates F; the recursions themselves take the
    Activation object."""
    act = get_activation(activation)
    sigma_w2, sigma_b2 = validate_variances(sigma_w2, sigma_b2)
    qs = q_recursion(sigma_w2, sigma_b2, layers, act)
    return KernelProfile(
        sigma_w2=sigma_w2,
        sigma_b2=sigma_b2,
        layers=int(layers),
        activation=act.name,
        q_per_layer=tuple(qs),
        f_prime_1=f_prime_1(sigma_w2, sigma_b2, qs, act),
    )


def profile_for_config(config) -> KernelProfile:
    """Profile matching a NetworkConfig (widths are irrelevant to the kernel)."""
    return build_profile(
        sigma_w2=config.sigma_w2,
        sigma_b2=config.sigma_b2,
        layers=len(config.hidden_widths),
        activation=config.activation,
    )
