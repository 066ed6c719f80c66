"""Network sampling, forward paths and first-layer reuse."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitboundary import nets
from bitboundary.activations import get_activation
from bitboundary.bitstrings import BitString
from bitboundary.errors import ConfigError
from bitboundary.nets import (
    FLOAT64_SPREAD,
    _live_units,
    DeepNet,
    NetworkConfig,
    flip_rows,
    forward,
    forward_batch,
    forward_from_first_layer,
    forward_with_first_layer_cache,
    probe_factor,
    sample_network,
    sample_outputs,
    screen_flips,
)
from bitboundary.rng import STREAM_OUTPUTS, spawn_rng

from conftest import build_linear_net


class TestNetworkConfig:
    def test_dims_and_depth(self):
        config = NetworkConfig(n=9, hidden_widths=(4, 7))
        assert config.dims == (9, 4, 7, 1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            NetworkConfig(n=0, hidden_widths=(4,))
        with pytest.raises(ConfigError):
            NetworkConfig(n=4, hidden_widths=())
        with pytest.raises(ConfigError):
            NetworkConfig(n=4, hidden_widths=(4, 0))
        with pytest.raises(ConfigError):
            NetworkConfig(n=4, hidden_widths=(4,), sigma_w2=-1.0)
        with pytest.raises(ConfigError):
            NetworkConfig(n=4, hidden_widths=(4,), sigma_w2=0.0, sigma_b2=0.0)
        with pytest.raises(ConfigError):
            NetworkConfig(n=4, hidden_widths=(4,), activation="swish")
        # n = 8.5 used to be accepted, width 8.5 to build width 8, and a seed
        # outside the [0, 2**64) that derive_seed keeps to be accepted
        for name, kw in (
            ("n", {"n": 8.5}), ("n", {"n": True}), ("hidden_widths", {"hidden_widths": (8.5,)}),
            ("seed", {"seed": 1.5}), ("seed", {"seed": -1}), ("seed", {"seed": 2**64}),
        ):
            with pytest.raises(ConfigError, match=name):
                NetworkConfig(**{"n": 4, "hidden_widths": (4,), **kw})
        config = NetworkConfig(n=np.int64(4), hidden_widths=(np.int64(3),), seed=2**64 - 1)
        assert type(config.n) is int and type(config.hidden_widths[0]) is int

    def test_variances_are_real_numbers(self):
        for value in ("2", None, True, 1j, 10**400):
            with pytest.raises(ConfigError, match="sigma_w2"):
                NetworkConfig(n=4, hidden_widths=(4,), sigma_w2=value)
        config = NetworkConfig(n=4, hidden_widths=(4,), sigma_w2=2, sigma_b2=np.float64(0.5))
        assert (config.sigma_w2, config.sigma_b2) == (2.0, 0.5)
        assert type(config.sigma_w2) is float and type(config.sigma_b2) is float


class TestSampling:
    def test_shapes(self):
        config = NetworkConfig(n=6, hidden_widths=(5, 3), sigma_b2=0.5)
        net = sample_network(config, 0)
        assert [w.shape for w in net.weights] == [(5, 6), (3, 5), (1, 3)]
        assert [b.shape for b in net.biases] == [(5,), (3,), (1,)]

    def test_deterministic_per_trial(self):
        config = NetworkConfig(n=8, hidden_widths=(8, 8), seed=11)
        a = sample_network(config, 3)
        b = sample_network(config, 3)
        c = sample_network(config, 4)
        for w1, w2 in zip(a.weights, b.weights):
            np.testing.assert_array_equal(w1, w2)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_weight_and_bias_variances(self):
        """Entries of layer l have variance sigma_w2 / fan_in (weights) and
        sigma_b2 (biases); pooled empirical variances must sit within five
        chi-square standard errors."""
        config = NetworkConfig(n=50, hidden_widths=(80,), sigma_w2=2.0, sigma_b2=1.0)
        w_entries, b_entries = [], []
        for trial in range(3):
            net = sample_network(config, trial)
            w_entries.append(net.weights[0].ravel() * np.sqrt(50.0))
            b_entries.append(net.biases[0])
        w = np.concatenate(w_entries)
        b = np.concatenate(b_entries)
        assert abs(w.var() - 2.0) < 5.0 * 2.0 * np.sqrt(2.0 / w.size)
        assert abs(b.var() - 1.0) < 5.0 * 1.0 * np.sqrt(2.0 / b.size)
        assert abs(w.mean()) < 5.0 * np.sqrt(2.0 / w.size)

    def test_arrays_are_frozen(self):
        net = sample_network(NetworkConfig(n=4, hidden_widths=(4,)), 0)
        with pytest.raises(ValueError):
            net.weights[0][0, 0] = 99.0

    def test_shape_mismatch_rejected(self):
        config = NetworkConfig(n=3, hidden_widths=(2,))
        with pytest.raises(ConfigError):
            DeepNet(config, [np.zeros((2, 3))], [np.zeros(2)])  # missing output layer
        with pytest.raises(ConfigError):
            DeepNet(
                config,
                [np.zeros((2, 4)), np.zeros((1, 2))],
                [np.zeros(2), np.zeros(1)],
            )


def _probe_signs(n, m, seed, duplicate=True):
    """m random sign rows of length n; row 1 repeats row 0 if duplicate."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=(m, n))
    if duplicate:
        signs[1] = signs[0]
    return signs


def _second_moments(draws):
    """Entrywise E[phi_i phi_j] over draws (trials, m) and its standard error."""
    products = draws[:, :, None] * draws[:, None, :]
    return products.mean(axis=0), products.std(axis=0, ddof=1) / np.sqrt(len(draws))


class TestSampleOutputs:
    """sample_outputs draws phi at fixed inputs from per-layer preactivation
    laws; the weight-drawing path (sample_network + forward_batch) is its
    oracle."""

    @pytest.mark.parametrize(
        "n, m, activation, sigma_b2",
        [(12, 4, "relu", 0.0), (12, 4, "tanh", 0.5), (4, 8, "relu", 0.3)],
    )
    def test_covariance_matches_weight_drawing_oracle(self, n, m, activation, sigma_b2):
        """Every entry of E[phi phi^T] agrees within a two-sample |z| <= 5,
        with a duplicate probe, sigma_b^2 > 0, and n = 4 < m = 8 (the first
        layer's factor R then has k = 4 < m rows)."""
        config = NetworkConfig(
            n=n, hidden_widths=(n, n), sigma_b2=sigma_b2, activation=activation, seed=9
        )
        signs = _probe_signs(n, m, seed=n)
        trials = 3000
        factor = probe_factor(signs, n)
        direct = np.array([sample_outputs(config, t, factor) for t in range(trials)])
        oracle = np.array(
            [forward_batch(sample_network(config, t), signs) for t in range(trials)]
        )
        direct_mean, direct_se = _second_moments(direct)
        oracle_mean, oracle_se = _second_moments(oracle)
        z = (direct_mean - oracle_mean) / np.sqrt(direct_se**2 + oracle_se**2)
        assert np.max(np.abs(z)) <= 5.0

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_duplicate_probes_give_equal_outputs(self, activation):
        config = NetworkConfig(n=64, hidden_widths=(64, 64), sigma_b2=0.2, activation=activation)
        factor = probe_factor(_probe_signs(64, 8, seed=1), 64)
        for trial in range(20):
            phi = sample_outputs(config, trial, factor)
            np.testing.assert_allclose(phi[1], phi[0], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n, m", [(12, 4), (64, 8), (4, 8)])
    def test_qr_factor_reproduces_gram_matrix(self, n, m):
        h = _probe_signs(n, m, seed=3).T
        r = probe_factor(h.T, n)
        assert r.shape == (min(n, m), m)
        assert not r.flags.writeable
        np.testing.assert_allclose(r.T @ r, h.T @ h, rtol=0.0, atol=1e-12 * n)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_shared_factor_equals_per_trial_factoring(self, activation):
        """One probe_factor for every trial draws the same outputs, bit for
        bit, as factoring the inputs again in each trial."""

        def refactoring(config, trial, signs):
            rng = spawn_rng(config.seed, STREAM_OUTPUTS, trial)
            dims, h = config.dims, signs.T
            for l in range(len(dims) - 1):
                r = np.linalg.qr(h, mode="r")
                g = rng.standard_normal((dims[l + 1], r.shape[0]))
                z = g @ r * np.sqrt(config.sigma_w2 / dims[l])
                z += np.sqrt(config.sigma_b2) * rng.standard_normal((dims[l + 1], 1))
                h = get_activation(activation)(z)
            return z[0]

        config = NetworkConfig(
            n=64, hidden_widths=(32, 48), sigma_b2=0.3, activation=activation, seed=5
        )
        signs = _probe_signs(64, 8, seed=4)
        factor = probe_factor(signs, 64)
        for trial in range(10):
            np.testing.assert_array_equal(
                sample_outputs(config, trial, factor), refactoring(config, trial, signs)
            )

    def test_deterministic_per_trial(self):
        config = NetworkConfig(n=16, hidden_widths=(16, 16), sigma_b2=0.1, seed=11)
        factor = probe_factor(_probe_signs(16, 8, seed=2), 16)
        a = sample_outputs(config, 3, factor)
        np.testing.assert_array_equal(a, sample_outputs(config, 3, factor))
        assert not np.array_equal(a, sample_outputs(config, 4, factor))

    def test_wrong_width_rejected(self):
        with pytest.raises(ConfigError):
            probe_factor(np.ones((4, 9)), 8)
        with pytest.raises(ConfigError):
            probe_factor(np.ones(8), 8)


class TestForward:
    def test_hand_computed_relu_net(self):
        # W1 = [[1, -1], [0.5, 2]], b1 = (0.25, -0.5); W2 = [[1, -2]], b2 = 0.75
        config = NetworkConfig(n=2, hidden_widths=(2,), sigma_b2=1.0)
        net = DeepNet(
            config,
            [np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[1.0, -2.0]])],
            [np.array([0.25, -0.5]), np.array([0.75])],
        )
        x = BitString([1, -1])  # z1 = (2.25, -2.0) -> h = (2.25, 0)
        assert forward(net, x) == 2.25 + 0.75
        y = BitString([-1, 1])  # z1 = (-1.75, 1.0) -> h = (0, 1.0)
        assert forward(net, y) == -2.0 + 0.75

    def test_linear_construction_is_exact(self):
        net = build_linear_net([5.0, -3.0, 9.0, 1.0, -7.0])
        rng = np.random.default_rng(12)
        for _ in range(20):
            signs = rng.choice([-1.0, 1.0], size=5)
            x = BitString(signs)
            assert forward(net, x) == float(np.dot([5.0, -3.0, 9.0, 1.0, -7.0], signs))

    def test_batch_matches_single(self):
        net = sample_network(NetworkConfig(n=12, hidden_widths=(12, 12)), 2)
        rng = np.random.default_rng(8)
        block = rng.choice([-1.0, 1.0], size=(16, 12))
        batch = forward_batch(net, block)
        singles = [forward(net, BitString(row)) for row in block]
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("n, widths", [(9, (13, 5, 7)), (40, (24, 48)), (6, (4,))])
    def test_batch_equals_explicit_layer_loop(self, n, widths, activation):
        config = NetworkConfig(n=n, hidden_widths=widths, sigma_b2=0.4, activation=activation)
        net = sample_network(config, 3)
        signs = np.random.default_rng(4).choice([-1.0, 1.0], size=(70, n))
        h = signs
        for l, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = h @ w.T + b
            h = z if l == len(widths) else net.activation(z)
        for _ in range(2):  # the second call reuses the net's row buffers
            np.testing.assert_array_equal(forward_batch(net, signs), z[:, 0])

    def test_results_do_not_alias_reused_buffers(self):
        net = sample_network(NetworkConfig(n=9, hidden_widths=(13, 5, 7), sigma_b2=0.4), 5)
        rng = np.random.default_rng(6)
        results, copies = [], []
        for m in (7, 3, 11):
            z1 = rng.standard_normal((m, 13))
            for phi in (forward_from_first_layer(net, z1), forward_batch(net, np.sign(z1[:, :9]))):
                results.append(phi)
                copies.append(phi.copy())
        for phi, copy in zip(results, copies):
            np.testing.assert_array_equal(phi, copy)

    def test_input_length_checked(self):
        net = sample_network(NetworkConfig(n=6, hidden_widths=(4,)), 0)
        with pytest.raises(ConfigError):
            forward(net, BitString(np.ones(7)))
        with pytest.raises(ConfigError):
            forward_batch(net, np.ones((2, 7)))


class TestFlipCache:
    """The first-layer reuse greedy search relies on: flipping bit i moves
    the cached z1 by -2 x_i W^(1)[:, i], and only the layers above the first
    are recomputed."""

    def test_cache_base_value_matches_forward(self):
        net = sample_network(NetworkConfig(n=10, hidden_widths=(10, 10)), 4)
        x = BitString.random(10, np.random.default_rng(1))
        phi, z1 = forward_with_first_layer_cache(net, x)
        np.testing.assert_allclose(phi, forward(net, x), rtol=1e-13)
        np.testing.assert_array_equal(z1, net.weights[0] @ x.signs + net.biases[0])
        with pytest.raises(ConfigError):
            forward_with_first_layer_cache(net, BitString(np.ones(11)))

    def test_single_flip_matches_full_forward(self):
        net = sample_network(NetworkConfig(n=14, hidden_widths=(14, 14)), 7)
        rng = np.random.default_rng(2)
        x = BitString.random(14, rng)
        _, z1 = forward_with_first_layer_cache(net, x)
        # every single flip at once, as one greedy step evaluates them
        z1_flips = z1[None, :] - 2.0 * (x.signs[:, None] * net.weights[0].T)
        via_cache = forward_from_first_layer(net, z1_flips)
        for i in range(14):
            direct = forward(net, x.flip_many((i,)))
            np.testing.assert_allclose(via_cache[i], direct, rtol=1e-10, atol=1e-12)


@pytest.fixture(scope="class")
def screen_at_any_size():
    """Nets of any size get a screen, so that small nets exercise it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "_SCREEN_MIN_WORK", 0)
        yield


def with_flips(net, flips, x):
    """net with W^(1) = flips * (-x / 2), so that flipping bit i of x changes
    z1 by flips[:, i] exactly (halving and doubling are exact)."""
    w1 = flips * (-0.5 * x.signs)
    return DeepNet(net.config, (w1, *net.weights[1:]), net.biases)


def one_input_net(net, i):
    """The net with W^(1)'s column i alone, whose one flip is net's flip of
    bit i: a one-row screen."""
    config = dataclasses.replace(net.config, n=1)
    return DeepNet(config, (net.weights[0][:, i : i + 1], *net.weights[1:]), net.biases)


def assert_bound_holds(net, z1, x):
    """|phi32 - phi64| <= eps on every flip z1 + flip_rows(net, x, i), against
    the float64 pass over the whole batch and over each row alone, with the
    screen run on every flip and on each flip alone."""
    rows = flip_rows(net, x, slice(None)) + z1
    phi32, eps = screen_flips(net, z1, x)
    assert phi32.dtype == eps.dtype == np.float64
    assert np.all(np.abs(phi32 - forward_from_first_layer(net, rows)) <= eps)
    for i in range(len(rows)):  # one-row batches take other BLAS kernels
        single = forward_from_first_layer(net, rows[i : i + 1])[0]
        assert abs(phi32[i] - single) <= eps[i]
        phi32_i, eps_i = screen_flips(one_input_net(net, i), z1, BitString(x.signs[i : i + 1]))
        assert abs(phi32_i[0] - single) <= eps_i[0]


@pytest.mark.usefixtures("screen_at_any_size")
class TestFloat32Screen:
    """screen_flips' float32 tail and its bound: |phi32 - phi64| <= eps for
    any float64 evaluation of a row, with no tolerance beyond eps."""

    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(1, 24),
        widths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        sigma_w2=st.floats(0.25, 4.0),
        sigma_b2=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([1e-30, 1e-3, 1.0, 1e3]),
    )
    def test_bound_holds_on_every_row(self, n, widths, sigma_w2, sigma_b2, seed, scale):
        config = NetworkConfig(
            n=n, hidden_widths=tuple(widths), sigma_w2=sigma_w2, sigma_b2=sigma_b2, seed=seed
        )
        rng = np.random.default_rng(seed)
        flips = rng.standard_normal((widths[0], n)) * scale
        x = BitString.random(n, rng)
        net = with_flips(sample_network(config, 0), flips, x)
        assert_bound_holds(net, np.zeros(widths[0]), x)

    @pytest.mark.parametrize("dead", ["none", "most", "all"])
    @pytest.mark.parametrize("n, widths", [(64, (64, 64)), (40, (96, 24, 32)), (24, (48,))])
    def test_bound_holds_with_dead_units(self, n, widths, dead):
        """Every flip of a sampled net, with z1 chosen so that no first-layer
        unit, all but one in eight, or every unit is off in every row."""
        config = NetworkConfig(n=n, hidden_widths=widths, sigma_b2=0.3, seed=3)
        net = sample_network(config, 1)
        x = BitString.random(n, np.random.default_rng(n))
        z1 = 1.0 - flip_rows(net, x, slice(None)).min(axis=0)  # on in every row
        if dead != "none":
            off = slice(None) if dead == "all" else np.arange(widths[0]) % 8 != 0
            z1[off] = -0.5 - 2.0 * np.abs(net.weights[0][off]).max(axis=1)
        live = len(_live_units(z1, net._screen.hi))
        assert live == {"none": widths[0], "most": (widths[0] + 7) // 8, "all": 0}[dead]
        assert_bound_holds(net, z1, x)

    @pytest.mark.parametrize("signs", ["random", "all-plus", "all-minus"])
    def test_flip_bound_covers_every_flip_row(self, signs):
        """The per-unit bound that the screen's unit selection starts from,
        taken from W^(1) alone, is at least every flip row's entry, for any
        input, and equal to the largest one when x_i = -sign W[u, i]."""
        n = 24
        net = sample_network(NetworkConfig(n=n, hidden_widths=(40, 8), seed=6), 0)
        x = {
            "random": BitString.random(n, np.random.default_rng(1)),
            "all-plus": BitString(np.ones(n)),
            "all-minus": BitString(-np.ones(n)),
        }[signs]
        bound = net._screen.hi
        assert np.all(bound >= flip_rows(net, x, slice(None)).max(axis=0))
        for u in (0, 17, 39):
            x = BitString(-np.sign(net.weights[0][u]))
            assert flip_rows(net, x, slice(None))[:, u].max() == bound[u]

    @settings(deadline=None, max_examples=200)
    @given(
        data=st.data(),
        units=st.integers(1, 12),
        m=st.integers(1, 6),
        scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]),
    )
    def test_live_units_keep_every_unit_some_row_turns_on(self, data, units, m, scale):
        """A unit whose float64 preactivation z1 + f is positive in some
        row, or whose float32 rounding screen_flips feeds to ReLU is, stays
        live. z1 sits at -hi, one ulp either side of it, or anywhere."""
        finite = st.floats(-1.0, 1.0, allow_nan=False).map(lambda v: v * scale)
        flips = np.array(data.draw(st.lists(finite, min_size=units * m, max_size=units * m)))
        flips = flips.reshape(m, units)
        hi = flips.max(axis=0)
        offsets = st.sampled_from([0.0, -1.0, 1.0, None])
        z1 = np.empty(units)
        for u in range(units):
            offset = data.draw(offsets)
            if offset is None:
                z1[u] = data.draw(finite)
            else:
                z1[u] = np.nextafter(-hi[u], offset * np.inf) if offset else -hi[u]
        rows = flips + z1
        with np.errstate(over="ignore"):  # a float32 infinity is as positive
            turned_on = np.any(rows > 0.0, axis=0) | np.any(rows.astype(np.float32) > 0.0, axis=0)
        assert set(np.flatnonzero(turned_on)) <= set(_live_units(z1, hi))

    def test_nan_units_stay_live(self):
        z1 = np.array([np.nan, -1.0, 1.0, -1.0])
        hi = np.array([0.0, 0.5, 0.0, np.nan])
        np.testing.assert_array_equal(_live_units(z1, hi), [0, 2, 3])

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_row_subsets_within_float64_spread(self, n):
        """The BLAS row-subset property greedy's decision relies on:
        forward_from_first_layer on a 1-, 2-, 3- or 7-row subset of a batch of
        flips gives the rows of the full-batch pass to within
        FLOAT64_SPREAD * eps. (Bit equality
        does not hold on every BLAS: OpenBLAS rounds a 1- or 2-row batch, or
        any batch of 64, in another order.)"""
        config = NetworkConfig(n=n, hidden_widths=(n, n), sigma_b2=0.1, seed=5)
        net = sample_network(config, 1)
        rng = np.random.default_rng(n)
        z1 = net.weights[0] @ rng.choice([-1.0, 1.0], n) + net.biases[0]
        x = BitString(rng.choice([-1.0, 1.0], n))
        batch = flip_rows(net, x, slice(None)) + z1
        full = forward_from_first_layer(net, batch)
        _, eps = screen_flips(net, z1, x)
        for k in (1, 2, 3, 7):
            rows = np.sort(rng.choice(n, k, replace=False))
            sub = forward_from_first_layer(net, batch[rows])
            assert np.all(np.abs(sub - full[rows]) <= FLOAT64_SPREAD * eps[rows])

    def test_exact_arithmetic_gives_exact_values(self):
        net = build_linear_net([5.0, -3.0, 9.0, 1.0, -7.0])
        for signs in np.random.default_rng(3).choice([-1.0, 1.0], size=(9, 5)):
            x = BitString(signs)
            _, z1 = forward_with_first_layer_cache(net, x)
            phi32, eps = screen_flips(net, z1, x)
            rows = flip_rows(net, x, slice(None)) + z1
            np.testing.assert_array_equal(phi32, forward_from_first_layer(net, rows))
            assert np.all(eps > 0.0)

    @pytest.mark.parametrize("scale", [3e38, 1e39])
    def test_float32_overflow_gives_none(self, scale):
        """The tail's weights fit float32, the preactivations do not: z1
        itself (1e39) or the second layer's (a sum of five 3e38)."""
        config = NetworkConfig(n=6, hidden_widths=(5, 4))
        weights = [np.ones((5, 6)), np.ones((4, 5)), np.ones((1, 4))]
        net = DeepNet(config, weights, [np.zeros(5), np.zeros(4), np.zeros(1)])
        z1, x = np.full(5, scale), BitString(np.ones(6))
        assert net._screen is not None
        assert screen_flips(net, z1, x) is None
        rows = flip_rows(net, x, slice(None)) + z1
        assert np.all(np.isfinite(forward_from_first_layer(net, rows)))

    @pytest.mark.parametrize("scale", [1e39, 1e-40])
    def test_weights_outside_float32_have_no_screen(self, scale):
        config = NetworkConfig(n=6, hidden_widths=(5, 4), sigma_b2=0.2)
        net = sample_network(config, 0)
        weights = list(net.weights)
        weights[-1] = weights[-1] * scale
        assert DeepNet(config, weights, net.biases)._screen is None

    @pytest.mark.parametrize("big, screened", [(3.3e38, True), (3.5e38, False)])
    def test_one_hidden_weight_past_float32_leaves_no_screen(self, big, screened):
        """float32's largest value is about 3.403e38: a hidden weight above it
        rounds to infinity, though the carry vectors stay finite."""
        config = NetworkConfig(n=6, hidden_widths=(5, 4))
        hidden = np.ones((4, 5))
        hidden[0, 0] = big
        weights = [np.ones((5, 6)), hidden, np.full((1, 4), 0.25)]
        net = DeepNet(config, weights, [np.zeros(5), np.zeros(4), np.zeros(1)])
        assert (net._screen is not None) == screened

    def test_only_the_builtin_relu_is_screened(self):
        rng = np.random.default_rng(1)
        z1, x = rng.standard_normal(7), BitString.random(5, rng)
        for activation in ("relu", "tanh"):
            config = NetworkConfig(n=5, hidden_widths=(7, 6), activation=activation)
            net = sample_network(config, 0)
            assert (screen_flips(net, z1, x) is None) == (activation != "relu")
