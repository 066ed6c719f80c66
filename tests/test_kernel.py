"""Kernel recursions: Q per layer, the correlation map F, and F'(1).

Closed forms for ReLU come from the arc-cosine kernel (Cho and Saul 2009);
the tanh path is a Hermite series plus Gauss-Hermite moments, and a kinked
activation fails the series' check. Frozen oracle values in this
file were computed with scipy.integrate.dblquad on the bivariate normal
integrand at epsabs=1e-12 (1e-13 for TANH_SERIES_ORACLE), independently of
the package's quadrature.
"""

import math

import numpy as np
import pytest

from bitboundary import kernel
from bitboundary.activations import Activation, get_activation
from bitboundary.errors import ConfigError, NumericalFaultError, QuadratureError
from bitboundary.kernel import (
    _cross_moment,
    build_profile,
    default_grid,
    f_prime_1,
    f_recursion,
    profile_for_config,
    psi,
    q_recursion,
)
from bitboundary.nets import NetworkConfig

RELU = get_activation("relu")
TANH = get_activation("tanh")

# E[tanh(u) tanh(v)] for (u, v) ~ N(0, q [[1, c], [c, 1]]), scipy dblquad
TANH_MOMENT_ORACLE = {
    (2.0, 0.9): 0.4542393491897774,
    (2.0, -0.7): -0.339089956121105,
    (1.5, 0.25): 0.10654267920505499,
}
# E[tanh(u) tanh(v)] up to c = +-(1 - 1e-8) and q = 3.4, near the tanh
# kernel's limit Q_1 ~ 3.67, all of it taken by the Hermite series; scipy
# dblquad over (z, w) standard normal with u = sqrt(q) z,
# v = sqrt(q) (c z + sqrt(1 - c^2) w)
TANH_SERIES_ORACLE = {
    (2.0, 0.5): 0.2360073345513688,
    (2.0, 0.9): 0.45423934918977726,
    (2.0, 0.9999): 0.5199058489903797,
    (2.0, 0.99999999): 0.5199757386737827,
    (2.0, -0.99999999): -0.5199757386737827,
    (3.4, 0.5): 0.2667589813638153,
    (3.4, 0.9): 0.525063357989288,
    (3.4, 0.9999): 0.6096799688063583,
    (3.4, 0.99999999): 0.609773734878184,
    (3.4, -0.99999999): -0.609773734878184,
}
# E[tanh(sqrt(q) z)^2], scipy quad
TANH_SQ_ORACLE = {
    2.0: 0.5199757456639487,
    1.5: 0.46828821053061415,
    3.0: 0.5894390844781303,
}


class TestPsi:
    def test_endpoints(self):
        assert psi(1.0) == 1.0
        assert abs(psi(-1.0)) < 1e-16
        np.testing.assert_allclose(psi(0.0), 1.0 / math.pi, rtol=1e-15)

    def test_hand_value(self):
        # Psi(0.5) = (sqrt(3)/2 + (pi - pi/3)/2) / pi
        expected = (math.sqrt(3.0) / 2.0 + (math.pi - math.pi / 3.0) / 2.0) / math.pi
        np.testing.assert_allclose(psi(0.5), expected, rtol=1e-15)

    def test_monotone_and_majorizes_identity(self):
        t = np.linspace(-1.0, 1.0, 4001)
        v = psi(t)
        assert np.all(np.diff(v) > 0)
        assert np.all(v >= t - 1e-15)
        assert np.all(v <= 1.0 + 1e-15)

    def test_clamps_small_overshoot_but_faults_beyond(self):
        assert psi(1.0 + 1e-13) == 1.0
        with pytest.raises(NumericalFaultError):
            psi(1.0 + 1e-9)


@pytest.mark.parametrize("activation", [None, "relu", "tanh"])
def test_nan_overlap_faults(activation):
    """psi and F used to return NaN at a NaN overlap."""
    rule = psi if activation is None else build_profile(activation=activation).evaluate
    for t in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(NumericalFaultError, match="nan"):
            rule(t)


class TestQRecursion:
    def test_relu_default_is_constant_two(self):
        # sigma_w2 = 2, sigma_b2 = 0: Q_l = 2 at every layer
        assert q_recursion(2.0, 0.0, 5, RELU) == [2.0] * 6

    def test_relu_mixed_variances_fixed_point(self):
        # sigma_w2 = 1, sigma_b2 = 1: Q = 2 is exactly self-reproducing
        assert q_recursion(1.0, 1.0, 3, RELU) == [2.0] * 4

    def test_relu_hand_recursion(self):
        # sigma_w2 = 0.5, sigma_b2 = 2: Q_{l+1} = Q_l / 4 + 2 from Q_1 = 2.5
        expected = [2.5, 2.625, 2.65625, 2.6640625]
        np.testing.assert_allclose(q_recursion(0.5, 2.0, 3, RELU), expected, rtol=1e-15)

    def test_tanh_against_dblquad_oracle(self):
        qs = q_recursion(2.0, 0.0, 1, TANH)
        np.testing.assert_allclose(qs[0], 2.0, rtol=1e-15)
        np.testing.assert_allclose(qs[1], 2.0 * TANH_SQ_ORACLE[2.0], atol=2e-9)

        qs = q_recursion(1.5, 0.0, 1, TANH)
        np.testing.assert_allclose(qs[1], 1.5 * TANH_SQ_ORACLE[1.5], atol=2e-9)

        # above q ~ 2.73, where Gauss-Hermite 128/192 stopped agreeing
        qs = q_recursion(3.0, 0.0, 1, TANH)
        np.testing.assert_allclose(qs[1], 3.0 * TANH_SQ_ORACLE[3.0], atol=2e-9)

    def test_invalid_variances(self):
        with pytest.raises(ConfigError):
            q_recursion(0.0, 0.0, 2, RELU)
        with pytest.raises(ConfigError):
            q_recursion(-1.0, 1.0, 2, RELU)
        with pytest.raises(ConfigError):
            q_recursion(2.0, 0.0, 0, RELU)

    def test_divergent_quadrature_is_reported(self):
        # a step activation far from the kink rays defeats the scalar
        # Gauss-Hermite cross-check, which must fail loudly, not silently
        step = Activation(
            "offset_step_test", lambda x: (x > 0.3).astype(float), lambda x: np.zeros_like(x)
        )
        with pytest.raises(QuadratureError):
            q_recursion(2.0, 0.0, 1, step)


class TestFRecursion:
    def test_first_layer_is_affine(self):
        t = np.linspace(-1.0, 1.0, 11)
        _, stack = f_recursion(3.0, 1.0, q_recursion(3.0, 1.0, 1, RELU), t, RELU)
        np.testing.assert_allclose(stack[0], (3.0 * t + 1.0) / 4.0, rtol=1e-15)

    def test_default_profile_composition(self):
        # sigma_b2 = 0 keeps F_1 = identity, so F = Psi(Psi(t))
        qs = [2.0, 2.0, 2.0]
        t = np.linspace(-1.0, 1.0, 101)
        f, stack = f_recursion(2.0, 0.0, qs, t, RELU)
        np.testing.assert_allclose(f, psi(psi(t)), rtol=1e-14)
        assert stack.shape == (3, 101)

    def test_scalar_in_scalar_out(self):
        f, _ = f_recursion(2.0, 0.0, [2.0, 2.0, 2.0], 1.0, RELU)
        assert isinstance(f, float)
        assert f == 1.0

    def test_antipodal_default_value(self):
        # F(-1) = Psi(Psi(-1)) = Psi(0) = 1/pi
        f, _ = f_recursion(2.0, 0.0, [2.0, 2.0, 2.0], -1.0, RELU)
        np.testing.assert_allclose(f, 1.0 / math.pi, rtol=1e-14)

    def test_overlap_outside_range_faults(self):
        with pytest.raises(NumericalFaultError):
            f_recursion(2.0, 0.0, [2.0, 2.0], 1.001, RELU)

    def test_tanh_second_layer_against_dblquad_oracle(self):
        # one hidden layer, sigma_b2 = 0: F(t) = E[tanh tanh](Q_1, t) / Q_2
        prof = build_profile(2.0, 0.0, 1, "tanh")
        q2 = prof.q_per_layer[1]
        for (q, c), moment in TANH_MOMENT_ORACLE.items():
            if q != 2.0:
                continue
            np.testing.assert_allclose(
                float(prof.evaluate(c)), 2.0 * moment / q2, atol=5e-10
            )

    def test_cross_moment_failure_names_the_real_overlap(self):
        # the series fails just below c = 1 at Q = 8; c must not print as 1
        with pytest.raises(QuadratureError, match=r"at c=0\.99999999, q=8\.0: gap"):
            _cross_moment(TANH, 8.0, np.array([1 - 1e-8]))

    def test_tanh_perfect_anticorrelation_is_preserved(self):
        # odd activation: E[tanh(u) tanh(-u)] = -E[tanh^2], so F(-1) = -1
        prof = build_profile(2.0, 0.0, 3, "tanh")
        np.testing.assert_allclose(float(prof.evaluate(-1.0)), -1.0, atol=1e-12)


class TestHermiteSeries:
    @pytest.mark.parametrize("q, c", sorted(TANH_SERIES_ORACLE))
    def test_tanh_against_dblquad_oracle(self, q, c):
        got = float(_cross_moment(TANH, q, np.array([c]))[0])
        np.testing.assert_allclose(got, TANH_SERIES_ORACLE[q, c], rtol=0.0, atol=1e-10)

    def test_kinked_activation_is_refused(self):
        # ReLU's Hermite coefficients decay algebraically, so the series'
        # two orders disagree, and a ReLU that is not the built-in RELU
        # object has no other rule
        twin = Activation("relu_series_twin", lambda x: np.maximum(x, 0.0), lambda x: x > 0)
        with pytest.raises(QuadratureError, match=r"relu_series_twin .*at c=0\.5, q=2\.0: gap"):
            _cross_moment(twin, 2.0, np.array([0.5]))

    def test_tanh_reaches_the_one_dimensional_limit(self):
        # F builds wherever Q_l and F'(1) do: up to Q_1 ~ 3.67
        prof = build_profile(3.6, 0.0, 2, "tanh")
        f = prof.evaluate(default_grid())
        assert f[-1] == 1.0
        assert np.all(np.diff(f) > 0.0)


class TestTwoOrderCheck:
    """A NaN from either order of a rule used to pass the agreement check."""

    def test_nan_moment_does_not_agree(self):
        with pytest.raises(QuadratureError, match="nan"):
            kernel._gh_moment("test moment", lambda u: np.full_like(u, math.nan), 2.0)

    def test_nan_series_entry_does_not_agree(self, monkeypatch):
        # at c = 0.5 the two orders disagree by a finite gap; the NaN entry
        # is the one reported
        def series(c, power):
            return np.where(c == 0.25, math.nan, float(power.size))

        monkeypatch.setattr(kernel, "polyval", series)
        with pytest.raises(QuadratureError, match=r"at c=0\.25, q=2\.0: gap nan"):
            _cross_moment(TANH, 2.0, np.array([0.5, 0.25]))


class TestFPrime1:
    def test_relu_default_unit_slope(self):
        for layers in (1, 2, 5):
            qs = q_recursion(2.0, 0.0, layers, RELU)
            assert f_prime_1(2.0, 0.0, qs, RELU) == 1.0

    def test_relu_hand_products(self):
        # (1, 1): F'_1 = 1/2, each layer factor 2*1/(2*1+2) = 1/2
        qs = q_recursion(1.0, 1.0, 2, RELU)
        np.testing.assert_allclose(f_prime_1(1.0, 1.0, qs, RELU), 0.125, rtol=1e-15)
        # (0.5, 2): telescoping product leaves exactly 1/341
        qs = q_recursion(0.5, 2.0, 3, RELU)
        np.testing.assert_allclose(
            f_prime_1(0.5, 2.0, qs, RELU), 1.0 / 341.0, rtol=1e-12
        )

    def test_tanh_matches_finite_difference_of_evaluate(self):
        prof = build_profile(2.0, 0.0, 2, "tanh")
        h = 1e-5
        approx = (prof.evaluate(1.0) - float(prof.evaluate(1.0 - h))) / h
        assert abs(prof.f_prime_1 - approx) / prof.f_prime_1 < 1e-3
        # independent reference: the same layer recursion with Q_l and
        # E[sech^4(sqrt(Q) z)] by adaptive scipy.integrate.quad (epsrel 1e-13);
        # tanh at sigma_w2 = 2 is chaotic (F'(1) > 1)
        np.testing.assert_allclose(prof.f_prime_1, 1.5931232231706665, rtol=1e-9)

    def test_zero_signal_variance_faults(self):
        with pytest.raises(NumericalFaultError):
            f_prime_1(0.0, 1.0, [1.0, 1.0], RELU)


class TestGenericQuadratureAgainstClosedForm:
    """The one-dimensional Gauss-Hermite moments re-derive the ReLU closed
    forms of Q_l and F'(1) when handed a ReLU that is not the built-in RELU
    object, which alone gets the closed forms."""

    def setup_method(self):
        self.twin = Activation("relu_twin_test", lambda x: np.maximum(x, 0.0), lambda x: x > 0)

    def test_f_prime_1_matches(self):
        for sw2, sb2, layers in [(2.0, 0.0, 2), (1.0, 1.0, 3), (0.5, 2.0, 2)]:
            closed = f_prime_1(sw2, sb2, q_recursion(sw2, sb2, layers, RELU), RELU)
            generic = f_prime_1(
                sw2, sb2, q_recursion(sw2, sb2, layers, self.twin), self.twin
            )
            np.testing.assert_allclose(generic, closed, rtol=1e-12)

    def test_q_recursion_matches(self):
        for sw2, sb2, layers in [(2.0, 0.0, 2), (1.0, 1.0, 3), (0.5, 2.0, 2)]:
            closed = q_recursion(sw2, sb2, layers, RELU)
            generic = q_recursion(sw2, sb2, layers, self.twin)
            np.testing.assert_allclose(generic, closed, rtol=1e-10)


class TestProfile:
    def test_per_layer_values_and_q(self, default_profile):
        assert default_profile.q_per_layer == (2.0, 2.0, 2.0)
        assert default_profile.q == 2.0
        assert default_profile.f_prime_1 == 1.0
        assert default_profile.activation == "relu"

    def test_frozen_point_value(self, default_profile):
        np.testing.assert_allclose(
            float(default_profile.evaluate(0.5)), 0.683905650898706, rtol=1e-12
        )

    def test_profile_for_config_matches_build(self):
        config = NetworkConfig(n=64, hidden_widths=(64, 64), sigma_w2=1.0, sigma_b2=1.0)
        via_config = profile_for_config(config)
        direct = build_profile(1.0, 1.0, 2, "relu")
        assert via_config.q_per_layer == direct.q_per_layer
        assert via_config.f_prime_1 == direct.f_prime_1

    def test_layers_must_be_an_integer(self):
        """layers = 2.0 used to end in a TypeError, and layers = True to build
        one layer."""
        for layers in (2.0, True, "2"):
            with pytest.raises(ConfigError, match="layers"):
                build_profile(layers=layers)
            with pytest.raises(ConfigError, match="layers"):
                q_recursion(2.0, 0.0, layers, RELU)
        assert build_profile(layers=np.int64(3)).layers == 3

    def test_variances_must_be_real_numbers(self):
        for value in ("2", None, True):
            with pytest.raises(ConfigError, match="sigma_w2"):
                build_profile(sigma_w2=value)
        profile = build_profile(sigma_w2=2, sigma_b2=np.float64(0.0))
        assert type(profile.sigma_w2) is float and type(profile.sigma_b2) is float
        assert profile.q_per_layer == build_profile(sigma_w2=2.0).q_per_layer

    def test_closed_forms_go_by_identity_not_name(self):
        """A tanh Activation object named "relu" used to get the ReLU closed
        forms (Q = 2, F'(1) = 1) because the kernel matched the name."""
        impostor = Activation("relu", np.tanh, TANH.derivative)
        for sw2, sb2, layers in [(2.0, 0.0, 2), (1.0, 0.5, 3)]:
            qs = q_recursion(sw2, sb2, layers, impostor)
            assert qs == q_recursion(sw2, sb2, layers, TANH)
            assert f_prime_1(sw2, sb2, qs, impostor) == f_prime_1(sw2, sb2, qs, TANH)
            t = np.linspace(-0.9, 0.9, 7)
            np.testing.assert_array_equal(
                f_recursion(sw2, sb2, qs, t, impostor)[1],
                f_recursion(sw2, sb2, qs, t, TANH)[1],
            )
        with pytest.raises(ConfigError):
            # a profile takes a name, relu or tanh, never an object: one holding the
            # impostor would have evaluated F by its name, "relu"
            build_profile(activation=impostor)


class TestGrids:
    def test_uniform_grid(self):
        """default_grid is the 2001-point uniform grid on [-1, 1], spacing
        0.001, with nothing added but the refinement points 1 - 10^-k."""
        g = default_grid()
        u = np.linspace(-1.0, 1.0, 2001)
        assert g[0] == -1.0 and g[-1] == 1.0
        np.testing.assert_allclose(np.diff(u), 0.001, rtol=1e-9)
        assert np.isin(u, g).all()
        extra = np.setdiff1d(g, u)
        assert np.isin(extra, [1.0 - 10.0**-k for k in range(1, 9)]).all()

    def test_default_grid_refines_toward_one(self):
        """The 2001-point uniform grid on [-1, 1] and each 1 - 10^-k, k = 1..8."""
        g = default_grid()
        assert np.all(np.diff(g) > 0)
        assert np.isin(np.linspace(-1.0, 1.0, 2001), g).all()
        assert np.isin([1.0 - 10.0**-k for k in range(1, 9)], g).all()


class TestKernelShapeInequalities:
    """Unit-scale twin of the monotonicity criterion: one ReLU config here,
    all nine in the acceptance suite."""

    def test_bounds_and_monotonicity(self):
        prof = build_profile(1.0, 1.0, 5, "relu")
        t = default_grid()
        f = prof.evaluate(t)
        assert np.all(f >= t - 1e-12)
        assert np.all(f <= 1.0 + 1e-12)
        assert np.all(np.diff(f) >= -1e-12)
        assert 0.0 < prof.f_prime_1 <= 1.0

    def test_taylor_ratio_frozen_values(self, default_profile):
        """|F(1-u) - 1 + F'(1) u| / u^{3/2} stays bounded as u -> 0 (the
        3/2-power short-distance expansion); frozen from this implementation
        and stable to 1e-6."""
        us = np.array([5e-2, 2e-2, 1e-2, 5e-3, 2e-3])
        f = np.asarray(default_profile.evaluate(1.0 - us))
        ratios = np.abs(f - 1.0 + default_profile.f_prime_1 * us) / us**1.5
        expected = [
            0.5718333179078413,
            0.5818621335796228,
            0.5870861457440892,
            0.5908529700817393,
            0.5942480089877797,
        ]
        np.testing.assert_allclose(ratios, expected, rtol=1e-6)
        assert ratios.max() / ratios.min() < 1.1
