"""Exact Gaussian-process sampling of the infinite-width output field.

On any finite set of bit strings, given as the rows x_i of an (m, n) sign
matrix, the infinite-width network output is a zero-mean multivariate
Gaussian with covariance K_ij = Q * F(x_i . x_j / n). This module factorizes
that covariance (dense Cholesky with an escalating jitter ladder for the
rank-deficient cases, e.g. duplicate points) and draws joint samples
deterministically per trial index, providing the oracle against which finite
networks and the closed-form theory are validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FactorizationError
from .kernel import KernelProfile
from .rng import STREAM_GP, spawn_rng

MAX_POINTS = 4096
JITTER_START = 1e-12
JITTER_STOP = 1e-6
JITTER_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class GpEnsemble:
    """Factorized joint Gaussian over a fixed point set."""

    cov: np.ndarray
    chol: np.ndarray
    jitter: float
    seed: int

    @property
    def size(self) -> int:
        return self.chol.shape[0]


def build_ensemble(profile: KernelProfile, signs: np.ndarray, seed: int = 0) -> GpEnsemble:
    """Build K from the overlaps of the sign rows (m, n) and factorize
    K + jitter * I.

    The jitter ladder starts at 1e-12 * Q and multiplies by 10 up to
    1e-6 * Q; failure after that signals a far-from-PSD kernel matrix,
    which would be a bug, not data.
    """
    signs = np.asarray(signs, dtype=np.float64)
    if signs.ndim != 2 or signs.size < 1 or not np.all(np.abs(signs) == 1.0):
        raise ConfigError(f"ensemble needs a nonempty (m, n) matrix of +-1, got {signs.shape}")
    m, n = signs.shape
    if m > MAX_POINTS:
        raise ConfigError(f"point set of {m} exceeds the dense factorization cap {MAX_POINTS}")
    # overlaps t = 1 - 2h / n from exact integer Hamming distances h; F once per h
    dist, index = np.unique((n - signs @ signs.T).astype(np.int64) // 2, return_inverse=True)
    f = np.asarray(profile.evaluate(1.0 - 2.0 * dist / n))
    cov = profile.q * f[index].reshape(m, m)
    jitter = JITTER_START * profile.q
    chol = None
    while jitter <= JITTER_STOP * profile.q * (1.0 + 1e-12):
        try:
            chol = np.linalg.cholesky(cov + jitter * np.eye(m))
            break
        except np.linalg.LinAlgError:
            jitter *= JITTER_FACTOR
    if chol is None:
        raise FactorizationError(
            f"Cholesky failed after jitter ladder up to {JITTER_STOP * profile.q:g}"
        )
    cov.flags.writeable = False
    chol.flags.writeable = False
    return GpEnsemble(cov=cov, chol=chol, jitter=jitter, seed=seed)


def sample(ensemble: GpEnsemble, trial_index: int) -> np.ndarray:
    """One joint draw of phi over the point set, deterministic per
    (ensemble.seed, trial_index)."""
    rng = spawn_rng(ensemble.seed, STREAM_GP, trial_index)
    return ensemble.chol @ rng.standard_normal(ensemble.size)


def sample_block(ensemble: GpEnsemble, first_trial: int, count: int) -> np.ndarray:
    """Stack of draws for trials first_trial .. first_trial + count - 1,
    shape (count, size). Row k equals sample(ensemble, first_trial + k)."""
    out = np.empty((count, ensemble.size))
    for k in range(count):
        out[k] = sample(ensemble, first_trial + k)
    return out
