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

from .errors import ConfigError
from .kernel import _DEGENERATE_S2, KernelProfile, overlap
from .stats import log_binomial, phi_cdf, phi_log_cdf

# log_binomial hands n + 1 to scipy's gammaln, which takes it as an int64
_MAX_N = 2**63 - 2


def validate_n(n: int) -> None:
    """The sqrt(n / ln n) scale needs ln n > 1, so every size must be >= 3,
    and every size must fit the log-gamma of log_binomial."""
    if not 3 <= n <= _MAX_N:
        raise ConfigError(f"n must be >= 3 (ln n > 1) and <= {_MAX_N}, got {n}")


def sqrt_n_over_ln_n(n: int) -> float:
    """The scale sqrt(n / ln n) of the nearest-boundary law; also the
    abscissa of the closest experiment's scaling fit."""
    return math.sqrt(n / math.log(n))


def _validate(
    n: int,
    a: float = 1.0,
    q: float = 1.0,
    f_prime_1: float = 1.0,
    z: float = 0.0,
    phi_x: float = 0.0,
) -> None:
    """ConfigError unless n >= 3, the scale a, Q and F'(1) are positive and
    finite, and z and phi(x) are finite."""
    validate_n(n)
    for name, value in (("z", z), ("phi(x)", phi_x)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    for name, value in (("distance scale a", a), ("Q", q), ("F'(1)", f_prime_1)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and > 0, got {value}")


def h_n(n: int, a: float) -> int:
    """Shell index floor(a sqrt(n / ln n)); a shell beyond n is an error."""
    _validate(n, a=a)
    scaled = a * sqrt_n_over_ln_n(n)
    if scaled >= n + 1:
        raise ConfigError(f"distance scale a = {a} puts h_n beyond n = {n}")
    return math.floor(scaled)


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
    _validate(n, z=z)
    if not 1 <= h <= n:
        raise ConfigError(f"need 1 <= h <= n, got h={h}, n={n}")
    f = float(profile.evaluate(overlap(h, n)))
    return _flip_probability_at_f(f, z, log=False)


def ln_count_flipped(profile: KernelProfile, n: int, a: float, z: float) -> float:
    """Exact ln N_n(a, z) = ln C(n, h_n) + ln P_n.

    When a is so small that h_n = 0 this degenerates to ln P at h = 0,
    which is -inf for z >= 0 (a string cannot flip at distance zero).
    """
    _validate(n, z=z)
    hn = h_n(n, a)
    if hn == 0:
        return _flip_probability_at_f(1.0, z, log=True)
    f = float(profile.evaluate(overlap(hn, n)))
    return log_binomial(n, hn) + _flip_probability_at_f(f, z, log=True)


def ln_count_asymptotic(n: int, a: float, z: float, f_prime_1: float) -> float:
    """The asymptotic bracket of ln N_n(a, z)."""
    _validate(n, a=a, f_prime_1=f_prime_1, z=z)
    ln_n = math.log(n)
    return (
        0.5
        * a
        * math.sqrt(n * ln_n)
        * (1.0 - z * z / (4.0 * f_prime_1 * a * a) + math.log(ln_n / (a * a)) / ln_n)
    )


def h_star(phi_x: float, q: float, f_prime_1: float, n: int) -> float:
    """Predicted nearest-boundary distance for a specific output value."""
    _validate(n, q=q, f_prime_1=f_prime_1, phi_x=phi_x)
    return abs(phi_x) / (2.0 * math.sqrt(q * f_prime_1)) * sqrt_n_over_ln_n(n)


def expected_h_star(n: int, f_prime_1: float) -> float:
    """E[h*_n] = sqrt(n / (2 pi F'(1) ln n)) over the half-normal |phi|."""
    _validate(n, f_prime_1=f_prime_1)
    return math.sqrt(n / (2.0 * math.pi * f_prime_1 * math.log(n)))


def heuristic_flip_bound(n: int, f_prime_1: float) -> float:
    """Heuristic mean number of random flips to change classification."""
    if n < 1 or not (math.isfinite(f_prime_1) and f_prime_1 > 0):
        raise ConfigError(f"need n >= 1 and finite F'(1) > 0, got n={n}, F'(1)={f_prime_1}")
    return n / (4.0 * f_prime_1)


def heuristic_closest_bound(n: int, f_prime_1: float) -> float:
    """Heuristic nearest-boundary distance from the extreme-value argument."""
    _validate(n, f_prime_1=f_prime_1)
    return math.sqrt(n / (8.0 * f_prime_1 * math.log(n)))


def theory_report(
    profile: KernelProfile, n: int, a: float = 0.4, z: float = 1.0
) -> dict:
    """All predictors for one (profile, n, a, z), as written by the CLI.

    P_n and the asymptotic ln N describe the shell at h_n, so both are None
    when h_n = 0 (there the exact ln N is -inf for z >= 0).
    """
    hn = h_n(n, a)
    shell = hn >= 1
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
        "P_n": conditional_flip_probability(profile, n, hn, z) if shell else None,
        "ln_N_exact": ln_count_flipped(profile, n, a, z),
        "ln_N_asymptotic": (
            ln_count_asymptotic(n, a, z, profile.f_prime_1) if shell else None
        ),
        "h_star_at_z": h_star(math.sqrt(q) * z, q, profile.f_prime_1, n),
        "expected_h_star": expected_h_star(n, profile.f_prime_1),
        "heuristic_flip_bound": heuristic_flip_bound(n, profile.f_prime_1),
        "heuristic_closest_bound": heuristic_closest_bound(n, profile.f_prime_1),
    }
