"""Normal CDF, log-binomial, and the least-squares fitters."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from bitboundary.stats import (
    fit_line,
    fit_power_law,
    fit_through_origin,
    log_binomial,
    mean_stderr,
    phi_cdf,
    phi_log_cdf,
)


class TestNormalCdf:
    def test_matches_reference_cdf(self):
        xs = np.array([-8.3, -2.0, -1.0, -0.25, 0.0, 0.5, 1.7, 9.0])
        np.testing.assert_allclose(phi_cdf(xs), norm.cdf(xs), rtol=0, atol=1e-15)

    def test_known_values(self):
        assert phi_cdf(0.0) == 0.5
        np.testing.assert_allclose(phi_cdf(1.0), 0.8413447460685429, atol=1e-15)
        np.testing.assert_allclose(phi_cdf(-1.96), 0.024997895148220435, atol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-6, 6, size=500)
        np.testing.assert_allclose(phi_cdf(xs) + phi_cdf(-xs), 1.0, atol=1e-14)

    def test_log_cdf_matches_reference_everywhere(self):
        """Including the deep left tail, where the plain CDF underflows to 0
        (below about -38) but the log must stay finite and accurate."""
        xs = np.array([-500.0, -100.0, -40.0, -38.0, -10.0, -1.0, 0.0, 3.0, 40.0])
        np.testing.assert_allclose(phi_log_cdf(xs), norm.logcdf(xs), rtol=1e-13, atol=0)

    def test_log_cdf_scalar_in_scalar_out(self):
        out = phi_log_cdf(-3.0)
        assert isinstance(out, float)
        np.testing.assert_allclose(out, math.log(phi_cdf(-3.0)), rtol=1e-12)

    def test_tail_dominant_term(self):
        # ln Phi(-t) ~ -t^2/2 for large t
        t = 200.0
        assert abs(phi_log_cdf(-t) / (-0.5 * t * t) - 1.0) < 1e-3


class TestLogBinomial:
    def test_exact_small_cases(self):
        for n, h in [(3, 0), (3, 3), (10, 3), (52, 5), (512, 7)]:
            expected = math.log(math.comb(n, h))
            np.testing.assert_allclose(log_binomial(n, h), expected, rtol=1e-13)

    def test_within_derived_bound_of_exact_reference(self):
        """The docstring's bound 4 * 2^-52 * lgamma(n + 1) against ln of the
        exact integer C(n, h), sampled sparsely over 2 <= n <= 10^4. The
        largest error found in a denser scan is 0.62 of the bound, at
        n = 9125, h = 4559; (9118, 4559) is close behind."""
        ns = {*range(2, 10**4 + 1, 97), *np.geomspace(2, 10**4, 40).astype(int).tolist(), 10**4}
        pairs = [(n, h) for n in ns for h in {0, 1, 2, n // 3, n // 2, n - 1, n}]
        for n, h in pairs + [(9118, 4559), (9125, 4559)]:
            bound = 4 * 2.0**-52 * math.lgamma(n + 1)
            err = abs(log_binomial(n, h) - math.log(math.comb(n, h)))
            assert err <= bound, (n, h, err / bound)

    def test_large_arguments_no_overflow(self):
        # C(1000, 500) overflows float64 directly; the log must not
        expected = math.lgamma(1001) - 2 * math.lgamma(501)
        np.testing.assert_allclose(log_binomial(1000, 500), expected, rtol=1e-13)
        assert log_binomial(10**12, 10**6) > 0

    def test_symmetry(self):
        np.testing.assert_allclose(
            log_binomial(97, 13), log_binomial(97, 84), rtol=1e-13
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            log_binomial(5, -1)
        with pytest.raises(ValueError):
            log_binomial(5, 6)


class TestMeanStderr:
    def test_hand_value(self):
        mean, se = mean_stderr([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5
        np.testing.assert_allclose(se, np.std([1, 2, 3, 4], ddof=1) / 2.0, rtol=1e-14)

    def test_single_sample_convention(self):
        assert mean_stderr([7.0]) == (7.0, 0.0)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            mean_stderr([])


class TestFitThroughOrigin:
    def test_hand_solution(self):
        # a = sum(xy)/sum(x^2) = 28.7 / 14
        fit = fit_through_origin([1.0, 2.0, 3.0], [2.0, 3.9, 6.3])
        np.testing.assert_allclose(fit.coefficient, 28.7 / 14.0, rtol=1e-14)
        assert fit.n_points == 3

    def test_exact_data_has_zero_residuals(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        fit = fit_through_origin(x, 3.25 * x)
        np.testing.assert_allclose(fit.coefficient, 3.25, rtol=1e-14)
        assert fit.stderr == 0.0
        assert fit.r_squared == 1.0
        assert fit.max_abs_residual < 1e-12

    def test_stderr_shrinks_with_noise_sqrt_m(self):
        """With y = a x + noise, the reported stderr tracks the usual
        sigma / sqrt(sum x^2) scaling."""
        rng = np.random.default_rng(11)
        x = np.ones(4000)
        y = 2.0 * x + rng.normal(0.0, 0.5, size=4000)
        fit = fit_through_origin(x, y)
        expected = 0.5 / math.sqrt(4000.0)
        assert 0.5 * expected < fit.stderr < 2.0 * expected
        assert abs(fit.coefficient - 2.0) < 5.0 * fit.stderr

    def test_model_label_round_trips_as_dict(self):
        fit = fit_through_origin([1.0, 2.0], [1.0, 2.0], model="y=a*x")
        d = fit.as_dict()
        assert d["model"] == "y=a*x"
        assert set(d) == {
            "model",
            "coefficient",
            "stderr",
            "r2",
            "n_points",
            "rms_residual",
            "max_abs_residual",
        }

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_through_origin([], [])
        with pytest.raises(ValueError):
            fit_through_origin([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            fit_through_origin([0.0, 0.0], [1.0, 2.0])


class TestFitLine:
    def test_hand_solution(self):
        out = fit_line([1.0, 2.0, 3.0], [2.0, 3.9, 6.3])
        np.testing.assert_allclose(out["slope"], 2.15, rtol=1e-12)
        np.testing.assert_allclose(out["intercept"], -7.0 / 30.0, rtol=1e-10)
        # s^2 = SSR/(m-2), Sxx = 2
        np.testing.assert_allclose(out["slope_stderr"], 0.14433756729740638, rtol=1e-9)

    def test_recovers_exact_affine_data(self):
        x = np.array([1.0, 4.0, 6.0, 10.0])
        out = fit_line(x, -1.5 * x + 4.0)
        np.testing.assert_allclose(out["slope"], -1.5, rtol=1e-12)
        np.testing.assert_allclose(out["intercept"], 4.0, rtol=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_line([1.0], [1.0])


class TestFitPowerLaw:
    def test_recovers_exact_power_law(self):
        x = np.array([1.0, 4.0, 9.0, 16.0])
        out = fit_power_law(x, 2.0 * x**1.5)
        np.testing.assert_allclose(out["prefactor"], 2.0, rtol=1e-12)
        np.testing.assert_allclose(out["exponent"], 1.5, rtol=1e-12)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [0.0, 1.0])
