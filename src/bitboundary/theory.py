"""Closed-form predictors for boundary distances.

Quantities for a random network with output variance Q, correlation function
F, and slope F'(1), for strings of length n:

* P_n: probability that a string at Hamming distance h flips classification,
  conditioned on phi(x) = sqrt(Q) z:
      P = Phi(-F(1 - 2h/n) z / sqrt(1 - F(1 - 2h/n)^2)).
* ln N_n(a, z): log expected count of flipped strings at distance
  h_n = floor(a sqrt(n / ln n)); exact form ln C(n, h_n) + ln P_n, and the
  companion asymptotic
      (a/2) sqrt(n ln n) (1 - z^2/(4 F'(1) a^2) + ln(ln n / a^2) / ln n).
* h*_n: predicted distance to the nearest boundary for a specific output,
      |phi(x)| / (2 sqrt(Q F'(1))) * sqrt(n / ln n),
  and its expectation sqrt(n / (2 pi F'(1) ln n)) over phi.
* Heuristic bounds n / (4 F'(1)) for random flips and
  sqrt(n / (8 F'(1) ln n)) for the nearest boundary (extreme-value argument);
  both are labeled heuristic in all outputs.

ln is the natural logarithm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .kernel import KernelProfile
from .stats import log_binomial, phi_cdf, phi_log_cdf

_DEGENERATE_S2 = 1e-300


@dataclass(frozen=True)
class TheoryQuery:
    """Inputs of the asymptotic count: h_n = floor(a sqrt(n / ln n)) and the
    conditioning phi(x) = sqrt(Q) z."""

    n: int
    a: float
    z: float
    f_prime_1: float

    def __post_init__(self):
        validate_n(self.n)
        if self.a <= 0:
            raise ConfigError(f"distance scale a must be > 0, got {self.a}")
        if self.f_prime_1 <= 0:
            raise ConfigError(f"F'(1) must be > 0, got {self.f_prime_1}")


def validate_n(n: int) -> None:
    """The sqrt(n / ln n) scale needs ln n > 1, so every size must be >= 3."""
    if n < 3:
        raise ConfigError(f"n must be >= 3 (ln n > 1 region), got {n}")


def h_n(n: int, a: float) -> int:
    """Shell index floor(a sqrt(n / ln n))."""
    validate_n(n)
    if a <= 0:
        raise ConfigError(f"distance scale a must be > 0, got {a}")
    return math.floor(a * math.sqrt(n / math.log(n)))


def _flip_probability_at_f(f: float, z: float, log: bool) -> float:
    """P(phi(y) < 0 | phi(x) = sqrt(Q) z) given F = corr(phi(x), phi(y)).

    Perfect correlation is degenerate: phi(y) = +-phi(x) exactly, so the
    probability is the indicator of sign(+-z) < 0.
    """
    s2 = 1.0 - f * f
    if s2 < _DEGENERATE_S2:
        flipped = (z < 0.0) if f > 0 else (z > 0.0)
        if log:
            return 0.0 if flipped else -math.inf
        return 1.0 if flipped else 0.0
    arg = -f * z / math.sqrt(s2)
    return float(phi_log_cdf(arg)) if log else float(phi_cdf(arg))


def conditional_flip_probability(
    profile: KernelProfile, n: int, h: int, z: float
) -> float:
    """P_n at Hamming distance h, using the exact F (not its expansion)."""
    validate_n(n)
    if not 1 <= h <= n:
        raise ConfigError(f"need 1 <= h <= n, got h={h}, n={n}")
    f = float(profile.evaluate(1.0 - 2.0 * h / n))
    return _flip_probability_at_f(f, z, log=False)


def ln_count_flipped(profile: KernelProfile, n: int, a: float, z: float) -> float:
    """Exact ln N_n(a, z) = ln C(n, h_n) + ln P_n.

    When a is so small that h_n = 0 this degenerates to ln P at h = 0,
    which is -inf for z >= 0 (a string cannot flip at distance zero).
    """
    hn = h_n(n, a)
    if hn == 0:
        return _flip_probability_at_f(1.0, z, log=True)
    f = float(profile.evaluate(1.0 - 2.0 * hn / n))
    return log_binomial(n, hn) + _flip_probability_at_f(f, z, log=True)


def ln_count_asymptotic(query: TheoryQuery) -> float:
    """The asymptotic bracket of ln N_n(a, z)."""
    n, a, z, fp = query.n, query.a, query.z, query.f_prime_1
    ln_n = math.log(n)
    return (
        0.5
        * a
        * math.sqrt(n * ln_n)
        * (1.0 - z * z / (4.0 * fp * a * a) + math.log(ln_n / (a * a)) / ln_n)
    )


def h_star(phi_x: float, q: float, f_prime_1: float, n: int) -> float:
    """Predicted nearest-boundary distance for a specific output value."""
    validate_n(n)
    if q <= 0 or f_prime_1 <= 0:
        raise ConfigError(f"need q > 0 and F'(1) > 0, got q={q}, F'(1)={f_prime_1}")
    return abs(phi_x) / (2.0 * math.sqrt(q * f_prime_1)) * math.sqrt(n / math.log(n))


def expected_h_star(n: int, f_prime_1: float) -> float:
    """E[h*_n] = sqrt(n / (2 pi F'(1) ln n)) over the half-normal |phi|."""
    validate_n(n)
    if f_prime_1 <= 0:
        raise ConfigError(f"F'(1) must be > 0, got {f_prime_1}")
    return math.sqrt(n / (2.0 * math.pi * f_prime_1 * math.log(n)))


def heuristic_flip_bound(n: int, f_prime_1: float) -> float:
    """Heuristic mean number of random flips to change classification."""
    if n < 1 or f_prime_1 <= 0:
        raise ConfigError(f"need n >= 1 and F'(1) > 0, got n={n}, F'(1)={f_prime_1}")
    return n / (4.0 * f_prime_1)


def heuristic_closest_bound(n: int, f_prime_1: float) -> float:
    """Heuristic nearest-boundary distance from the extreme-value argument."""
    validate_n(n)
    if f_prime_1 <= 0:
        raise ConfigError(f"F'(1) must be > 0, got {f_prime_1}")
    return math.sqrt(n / (8.0 * f_prime_1 * math.log(n)))


def theory_report(
    profile: KernelProfile, n: int, a: float, z: float
) -> dict:
    """All predictors for one (profile, n, a, z), as written by the CLI."""
    hn = h_n(n, a)
    p_n: Optional[float]
    if hn >= 1:
        p_n = conditional_flip_probability(profile, n, hn, z)
    else:
        p_n = None
    query = TheoryQuery(n=n, a=a, z=z, f_prime_1=profile.f_prime_1)
    q = profile.q
    return {
        "n": n,
        "a": a,
        "z": z,
        "sigma_w2": profile.sigma_w2,
        "sigma_b2": profile.sigma_b2,
        "layers": profile.layers,
        "activation": profile.activation,
        "Q": q,
        "Fprime1": profile.f_prime_1,
        "h_n": hn,
        "P_n": p_n,
        "ln_N_exact": ln_count_flipped(profile, n, a, z),
        "ln_N_asymptotic": ln_count_asymptotic(query),
        "h_star_at_z": h_star(math.sqrt(q) * z, q, profile.f_prime_1, n),
        "expected_h_star": expected_h_star(n, profile.f_prime_1),
        "heuristic_flip_bound": heuristic_flip_bound(n, profile.f_prime_1),
        "heuristic_closest_bound": heuristic_closest_bound(n, profile.f_prime_1),
    }
