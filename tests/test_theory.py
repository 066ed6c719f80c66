"""Closed-form predictors: P_n, ln N_n, h*, and the heuristic bounds.

The conditional flip probability is validated against an independent oracle:
numerical conditioning of the joint bivariate normal through scipy's
multivariate CDF, rather than the package's own closed form.
"""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from bitboundary.errors import ConfigError
from bitboundary.theory import (
    conditional_flip_probability,
    expected_h_star,
    h_n,
    h_star,
    heuristic_closest_bound,
    heuristic_flip_bound,
    ln_count_asymptotic,
    ln_count_flipped,
    theory_report,
)


def _mvn_conditional_oracle(f, z, q=2.0):
    """P(phi_h < 0 | phi_0 = sqrt(q) z) by central differencing of the joint
    CDF; accuracy is limited by the differencing step (~1e-5 relative)."""
    su = math.sqrt(q)
    u0 = su * z
    eps = 1e-3 * su
    cov = [[q, q * f], [q * f, q]]

    def joint(u):
        return multivariate_normal.cdf(
            [0.0, u], mean=[0.0, 0.0], cov=cov, abseps=1e-11, releps=1e-11
        )

    num = joint(u0 + eps) - joint(u0 - eps)
    den = norm.cdf((u0 + eps) / su) - norm.cdf((u0 - eps) / su)
    return num / den


class TestHn:
    def test_floor_values(self):
        assert h_n(512, 0.4) == math.floor(0.4 * math.sqrt(512.0 / math.log(512.0)))
        assert h_n(512, 0.4) == 3
        assert h_n(1000, 0.25) == 3

    def test_small_a_gives_zero(self):
        assert h_n(100, 0.01) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            h_n(2, 0.4)
        with pytest.raises(ConfigError):
            h_n(100, 0.0)


class TestConditionalFlipProbability:
    def test_against_bivariate_normal_oracle(self, default_profile):
        for n, h, z in [(512, 10, 1.0), (512, 40, 0.5), (128, 5, 2.0), (128, 20, -1.0)]:
            mine = conditional_flip_probability(default_profile, n, h, z)
            f = float(default_profile.evaluate(1.0 - 2.0 * h / n))
            oracle = _mvn_conditional_oracle(f, z)
            assert abs(mine - oracle) / oracle < 5e-4

    def test_frozen_values(self, default_profile):
        np.testing.assert_allclose(
            conditional_flip_probability(default_profile, 512, 10, 1.0),
            0.00010748930878349159,
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            conditional_flip_probability(default_profile, 128, 20, -1.0),
            0.8943968763327701,
            rtol=1e-12,
        )

    def test_zero_conditioning_gives_half(self, default_profile):
        # z = 0: the conditioned field is symmetric whenever |F| < 1
        p = conditional_flip_probability(default_profile, 512, 25, 0.0)
        assert p == 0.5

    def test_probability_increases_with_distance(self, default_profile):
        ps = [
            conditional_flip_probability(default_profile, 256, h, 1.0)
            for h in range(1, 257)
        ]
        assert all(b >= a for a, b in zip(ps, ps[1:]))
        assert 0.0 < ps[0] < ps[-1] < 1.0

    def test_validation(self, default_profile):
        with pytest.raises(ConfigError):
            conditional_flip_probability(default_profile, 128, 0, 1.0)
        with pytest.raises(ConfigError):
            conditional_flip_probability(default_profile, 128, 129, 1.0)


class TestLnCount:
    def test_decomposition(self, default_profile):
        """ln N = ln C(n, h_n) + ln P_n whenever P_n is representable."""
        from bitboundary.stats import log_binomial

        n, a, z = 512, 0.6, 1.0
        hn = h_n(n, a)
        expected = log_binomial(n, hn) + math.log(
            conditional_flip_probability(default_profile, n, hn, z)
        )
        np.testing.assert_allclose(
            ln_count_flipped(default_profile, n, a, z), expected, rtol=1e-10
        )

    def test_deep_tail_stays_finite(self, default_profile):
        # at a = 0.25, n = 1e6 the flip probability is ~e^-1180: the log
        # composition must survive where the plain probability underflows
        val = ln_count_flipped(default_profile, 10**6, 0.25, 1.0)
        assert math.isfinite(val)
        np.testing.assert_allclose(val, -1175.4505753325395, rtol=1e-10)

    def test_subcritical_series_decreases(self, default_profile):
        seq = [ln_count_flipped(default_profile, 10**k, 0.25, 1.0) for k in (3, 4, 5, 6)]
        frozen = [
            -27.519535719325695,
            -100.41355773903356,
            -341.38977202634817,
            -1175.4505753325395,
        ]
        np.testing.assert_allclose(seq, frozen, rtol=1e-9)
        assert all(b < a for a, b in zip(seq, seq[1:]))

    def test_supercritical_series_increases(self, default_profile):
        seq = [ln_count_flipped(default_profile, 10**k, 1.0, 1.0) for k in (3, 4, 5, 6)]
        frozen = [
            49.25916779660513,
            169.371895952349,
            597.6399057607772,
            2001.463380112399,
        ]
        np.testing.assert_allclose(seq, frozen, rtol=1e-9)
        assert all(b > a for a, b in zip(seq, seq[1:]))

    def test_degenerate_h_zero(self, default_profile):
        # a too small for even one flip: impossible event for z >= 0
        assert ln_count_flipped(default_profile, 100, 0.01, 1.0) == -math.inf

    def test_asymptotic_hand_value(self):
        asym = ln_count_asymptotic(n=1000, a=0.5, z=1.0, f_prime_1=1.0)
        np.testing.assert_allclose(asym, 9.98322409323626, rtol=1e-13)

    def test_asymptotic_relative_gap_shrinks(self, default_profile):
        """The exact ln N approaches the asymptotic bracket as n grows; the
        relative gap must decrease along n = 1e3, 1e6, 1e9, 1e12."""
        gaps = []
        for k in (3, 6, 9, 12):
            n = 10**k
            exact = ln_count_flipped(default_profile, n, 1.0, 1.0)
            asym = ln_count_asymptotic(n=n, a=1.0, z=1.0, f_prime_1=1.0)
            gaps.append(abs(exact - asym) / abs(asym))
        frozen = [
            0.1510775167308188,
            0.1456133518996997,
            0.10675166302285026,
            0.08306708306650311,
        ]
        np.testing.assert_allclose(gaps, frozen, rtol=1e-6)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.1

    def test_query_validation(self):
        with pytest.raises(ConfigError):
            ln_count_asymptotic(n=1000, a=0.0, z=1.0, f_prime_1=1.0)
        with pytest.raises(ConfigError):
            ln_count_asymptotic(n=1000, a=0.5, z=1.0, f_prime_1=0.0)
        with pytest.raises(ConfigError):
            ln_count_asymptotic(n=2, a=0.5, z=1.0, f_prime_1=1.0)


class TestHStar:
    def test_hand_formula(self):
        # |phi| = sqrt(2), Q = 2, F' = 1: h* = 0.5 sqrt(n / ln n)
        expected = 0.5 * math.sqrt(784.0 / math.log(784.0))
        np.testing.assert_allclose(
            h_star(math.sqrt(2.0), 2.0, 1.0, 784), expected, rtol=1e-14
        )

    def test_scale_invariance_in_q(self):
        # h* depends on |phi| only through z = phi / sqrt(Q)
        a = h_star(1.0, 1.0, 1.0, 256)
        b = h_star(2.0, 4.0, 1.0, 256)
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_expected_value_half_normal(self):
        # E|phi| = sqrt(2 Q / pi) collapses h* to sqrt(n / (2 pi F' ln n))
        np.testing.assert_allclose(
            expected_h_star(784, 1.0), 4.32700378801096, rtol=1e-13
        )
        np.testing.assert_allclose(
            expected_h_star(512, 1.0),
            math.sqrt(512.0 / (2.0 * math.pi * math.log(512.0))),
            rtol=1e-14,
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            h_star(1.0, 0.0, 1.0, 256)
        with pytest.raises(ConfigError):
            expected_h_star(256, -1.0)


@pytest.mark.parametrize(
    "predictor, name",
    [
        (lambda p, bad: conditional_flip_probability(p, 64, 3, bad), "z"),
        (lambda p, bad: ln_count_flipped(p, 64, 0.4, bad), "z"),
        (lambda p, bad: h_star(bad, 1.0, 0.5, 64), r"phi\(x\)"),
    ],
    ids=["P_n", "ln_N", "h_star"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_output_value_is_rejected(default_profile, predictor, name, bad):
    """These used to return nan, or inf, instead of naming the argument."""
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        predictor(default_profile, bad)


class TestHeuristics:
    def test_flip_bound(self):
        assert heuristic_flip_bound(784, 1.0) == 196.0
        assert heuristic_flip_bound(1, 1.0) == 0.25
        np.testing.assert_allclose(heuristic_flip_bound(100, 0.5), 50.0, rtol=1e-14)

    def test_closest_bound(self):
        np.testing.assert_allclose(
            heuristic_closest_bound(512, 1.0),
            math.sqrt(512.0 / (8.0 * math.log(512.0))),
            rtol=1e-14,
        )

    def test_ordering_against_expectation(self):
        # extreme-value bound sits below the typical-case expectation
        for n in (64, 512, 4096):
            assert heuristic_closest_bound(n, 1.0) < expected_h_star(n, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            heuristic_flip_bound(0, 1.0)
        for f_prime_1 in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ConfigError):
                heuristic_flip_bound(10, f_prime_1)
        with pytest.raises(ConfigError):
            heuristic_closest_bound(512, 0.0)


class TestTheoryReport:
    def test_report_is_complete_and_consistent(self, default_profile):
        rep = theory_report(default_profile, 512, 0.4, 1.0)
        assert rep["n"] == 512 and rep["a"] == 0.4 and rep["z"] == 1.0
        assert rep["Q"] == 2.0 and rep["Fprime1"] == 1.0
        assert rep["h_n"] == 3
        np.testing.assert_allclose(
            rep["P_n"],
            conditional_flip_probability(default_profile, 512, 3, 1.0),
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            rep["ln_N_exact"],
            ln_count_flipped(default_profile, 512, 0.4, 1.0),
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            rep["expected_h_star"], expected_h_star(512, 1.0), rtol=1e-14
        )
        assert rep["heuristic_flip_bound"] == 128.0

    def test_report_handles_degenerate_h(self, default_profile):
        rep = theory_report(default_profile, 100, 0.01, 1.0)
        assert rep["h_n"] == 0
        assert rep["P_n"] is None
        assert rep["ln_N_exact"] == -math.inf
