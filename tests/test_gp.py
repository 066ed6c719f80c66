"""Exact Gaussian-process sampling over finite point sets."""

import numpy as np
import pytest

from bitboundary.bitstrings import BitString
from bitboundary.errors import ConfigError
from bitboundary.gp import (
    MAX_POINTS,
    build_ensemble,
    sample,
    sample_block,
)


@pytest.fixture(scope="module")
def small_ensemble(default_profile):
    return build_ensemble(default_profile, _small_points(), seed=77)


def _small_points():
    rng = np.random.default_rng(41)
    return np.stack([BitString.random(128, rng).signs for _ in range(12)])


class TestBuildEnsemble:
    def test_cov_matches_pairwise_covariance(self, small_ensemble, default_profile):
        pts = _small_points()
        for i in range(len(pts)):
            for j in range(len(pts)):
                t = pts[i] @ pts[j] / 128
                np.testing.assert_allclose(
                    small_ensemble.cov[i, j],
                    default_profile.q * float(default_profile.evaluate(t)),
                    rtol=1e-12,
                )

    def test_diagonal_is_q(self, small_ensemble):
        np.testing.assert_allclose(np.diag(small_ensemble.cov), 2.0, rtol=1e-12)

    def test_cholesky_reproduces_cov(self, small_ensemble):
        rebuilt = small_ensemble.chol @ small_ensemble.chol.T
        np.testing.assert_allclose(
            rebuilt, small_ensemble.cov + small_ensemble.jitter * np.eye(12), atol=1e-10
        )

    def test_duplicate_points_need_jitter_but_factorize(self, default_profile):
        x = BitString(np.ones(64))
        signs = np.stack([x.signs, x.signs, x.flip_many((0,)).signs])
        ens = build_ensemble(default_profile, signs, seed=1)
        assert ens.jitter >= 1e-12 * 2.0
        assert ens.jitter <= 1e-6 * 2.0 * (1 + 1e-12)

    def test_antipodal_entry(self, default_profile):
        x = BitString(np.ones(32))
        y = x.flip_many(range(32))
        ens = build_ensemble(default_profile, np.stack([x.signs, y.signs]), seed=0)
        np.testing.assert_allclose(
            ens.cov[0, 1], 2.0 / np.pi, rtol=1e-12
        )  # Q * F(-1) = 2 * Psi(Psi(-1))

    def test_validation(self, default_profile):
        with pytest.raises(ConfigError):
            build_ensemble(default_profile, np.ones((0, 8)), seed=0)
        with pytest.raises(ConfigError):
            build_ensemble(default_profile, np.array([[1.0, 0.0]]), seed=0)

    def test_sign_matrix_shape_checked(self, default_profile):
        for bad in (np.ones(8), np.ones((2, 2, 2))):
            with pytest.raises(ConfigError):
                build_ensemble(default_profile, bad, seed=0)
        with pytest.raises(ConfigError, match="cap"):
            build_ensemble(default_profile, np.ones((MAX_POINTS + 1, 4)), seed=0)

    def test_arrays_frozen(self, small_ensemble):
        with pytest.raises(ValueError):
            small_ensemble.cov[0, 0] = 5.0


class TestSampling:
    def test_deterministic_per_trial(self, small_ensemble):
        np.testing.assert_array_equal(
            sample(small_ensemble, 3), sample(small_ensemble, 3)
        )
        assert not np.array_equal(sample(small_ensemble, 3), sample(small_ensemble, 4))

    def test_block_rows_equal_single_draws(self, small_ensemble):
        block = sample_block(small_ensemble, 10, 5)
        assert block.shape == (5, 12)
        for k in range(5):
            np.testing.assert_array_equal(block[k], sample(small_ensemble, 10 + k))

    def test_single_point_variance(self, default_profile):
        """Marginal variance of phi at one point is Q, to within five
        chi-square standard errors over 4000 draws."""
        ens = build_ensemble(default_profile, np.ones((1, 64)), seed=5)
        draws = sample_block(ens, 0, 4000)[:, 0]
        var = draws.var(ddof=1)
        assert abs(var - 2.0) < 5.0 * 2.0 * np.sqrt(2.0 / 3999.0)
        assert abs(draws.mean()) < 5.0 * np.sqrt(2.0 / 4000.0)

    def test_pair_correlation_tracks_f(self, default_profile):
        """corr(phi(x), phi(y)) over draws approaches F(x.y/n); bound is five
        Fisher standard errors."""
        rng = np.random.default_rng(19)
        x = BitString.random(64, rng)
        for h in (1, 16, 48):
            y = x.flip_many(range(h))
            ens = build_ensemble(default_profile, np.stack([x.signs, y.signs]), seed=h)
            block = sample_block(ens, 0, 3000)
            r = np.corrcoef(block[:, 0], block[:, 1])[0, 1]
            f = float(default_profile.evaluate(1.0 - 2.0 * h / 64.0))
            assert abs(r - f) < 5.0 * (1.0 - f * f) / np.sqrt(3000.0 - 3.0)

    def test_duplicate_points_draw_identically(self, default_profile):
        """Samples at a duplicated point differ only by the jitter scale."""
        ens = build_ensemble(default_profile, np.ones((2, 64)), seed=2)
        block = sample_block(ens, 0, 500)
        spread = np.max(np.abs(block[:, 0] - block[:, 1]))
        assert spread < 1e-2 * np.sqrt(ens.jitter / 1e-12)
        corr = np.corrcoef(block[:, 0], block[:, 1])[0, 1]
        assert corr > 0.999999
