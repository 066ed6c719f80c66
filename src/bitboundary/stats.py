"""Numerical and statistical utilities shared by the other modules, and the
runtime's only scipy importer. Four helpers are its whole scipy surface: the
normal CDF `phi_cdf`, its tail-safe logarithm `phi_log_cdf`, `log_binomial`
via log-gamma, and gp-check's `skew_kurtosis`. The rest is numpy: the
prefactor fits by least squares, and the harness's mean / standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import erfc, gammaln, log_ndtr
from scipy.stats import kurtosis, skew

_SQRT2 = math.sqrt(2.0)


def phi_cdf(t):
    """Standard normal CDF Phi(t) = P(Z <= t), via the complementary error
    function (relative accuracy ~1e-15 over the full float range)."""
    return 0.5 * erfc(-np.asarray(t, dtype=float) / _SQRT2)


def phi_log_cdf(t):
    """ln Phi(t). scipy's log_ndtr stays accurate deep in the left tail,
    where the plain CDF underflows (t below about -38)."""
    out = log_ndtr(np.asarray(t, dtype=float))
    return out if out.ndim else float(out)


def log_binomial(n: int, h: int) -> float:
    """ln C(n, h) via log-gamma, without overflow. The error is at most
    4 * 2^-52 * lgamma(n + 1): three log-gamma values, each within one ulp of
    at most lgamma(n + 1), and two rounded subtractions (7.3e-11 at n = 10^4)."""
    if h < 0 or h > n:
        raise ValueError(f"require 0 <= h <= n, got n={n}, h={h}")
    return float(gammaln(n + 1) - gammaln(h + 1) - gammaln(n - h + 1))


def skew_kurtosis(samples) -> Tuple[float, float]:
    """Sample skewness and excess kurtosis, by scipy's defaults (biased)."""
    return float(skew(samples)), float(kurtosis(samples))


def mean_stderr(samples: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and standard error (ddof=1). A single sample has
    stderr 0 by convention; an empty input is an error."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("mean_stderr requires at least one sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit summary.

    ``r_squared`` is the uncentered coefficient of determination
    1 - SSR / sum(y^2), the natural choice for models without intercept.
    """

    coefficient: float
    stderr: float
    r_squared: float
    n_points: int
    rms_residual: float
    max_abs_residual: float
    model: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "coefficient": self.coefficient,
            "stderr": self.stderr,
            "r2": self.r_squared,
            "n_points": self.n_points,
            "rms_residual": self.rms_residual,
            "max_abs_residual": self.max_abs_residual,
        }


def fit_through_origin(xs, ys, model: Optional[str] = None) -> FitResult:
    """Least squares y = a * x.

    a = sum(x y) / sum(x^2); stderr is the usual regression standard error
    sqrt(SSR / ((m - 1) * sum(x^2))), taken as 0 when m == 1.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("xs and ys must be equal-length nonempty 1-D arrays")
    sxx = float(x @ x)
    if sxx == 0.0:
        raise ValueError("all x values are zero; slope undefined")
    a = float(x @ y) / sxx
    resid = y - a * x
    ssr = float(resid @ resid)
    syy = float(y @ y)
    if x.size > 1:
        stderr = math.sqrt(ssr / ((x.size - 1) * sxx))
    else:
        stderr = 0.0
    r2 = 1.0 if syy == 0.0 else max(0.0, min(1.0, 1.0 - ssr / syy))
    return FitResult(
        coefficient=a,
        stderr=stderr,
        r_squared=r2,
        n_points=int(x.size),
        rms_residual=math.sqrt(ssr / x.size),
        max_abs_residual=float(np.max(np.abs(resid))) if x.size else 0.0,
        model=model,
    )


def fit_line(xs, ys) -> dict:
    """Free-intercept diagnostic fit y = a*x + b with slope standard error."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 2:
        raise ValueError("free-intercept fit needs at least two points")
    A = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - (slope * x + intercept)
    dof = max(x.size - 2, 1)
    s2 = float(resid @ resid) / dof
    sxx = float(((x - x.mean()) ** 2).sum())
    slope_stderr = math.sqrt(s2 / sxx) if sxx > 0 else float("inf")
    return {
        "slope": slope,
        "intercept": intercept,
        "slope_stderr": slope_stderr,
        "n_points": int(x.size),
    }


def fit_power_law(xs, ys) -> dict:
    """Fit y = c * x^b by least squares on ln y vs ln x (requires x, y > 0).

    Reports the exponent and its standard error; used to demonstrate that the
    mean distance grows slower than sqrt(n)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit requires positive data")
    line = fit_line(np.log(x), np.log(y))
    return {
        "prefactor": math.exp(line["intercept"]),
        "exponent": line["slope"],
        "exponent_stderr": line["slope_stderr"],
        "n_points": line["n_points"],
    }
