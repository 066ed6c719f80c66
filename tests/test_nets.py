"""Network sampling, forward paths and first-layer reuse."""

import dataclasses
import threading
from concurrent import futures
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitboundary import harness, nets, search
from bitboundary.activations import get_activation
from bitboundary.bitstrings import BitString
from bitboundary.errors import ConfigError
from bitboundary.harness import KIND_CLOSEST, ExperimentConfig, run_experiment
from bitboundary.nets import (
    FLOAT64_SPREAD,
    _live_units,
    DeepNet,
    FlipScreen,
    NetworkConfig,
    drawing_ahead,
    flip_rows,
    forward,
    forward_batch,
    forward_from_first_layer,
    forward_with_first_layer_cache,
    probe_factor,
    sample_network,
    sample_outputs,
)
from bitboundary.rng import STREAM_NETWORK, STREAM_OUTPUTS, spawn_rng
from bitboundary.search import greedy_search

from conftest import build_linear_net, off_main, put_ahead, spy_net_draws, spy_traced_calls


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


def assert_same_net(a, b):
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def whole_array_draw(config, trial_index):
    """The reference draw: per layer one fill of the whole weight matrix and
    its scale, then the same for the biases."""
    rng = spawn_rng(config.seed, STREAM_NETWORK, trial_index)
    weights, biases = [], []
    for fan_in, fan_out in zip(config.dims, config.dims[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) * np.sqrt(config.sigma_w2 / fan_in))
        biases.append(rng.standard_normal(fan_out) * np.sqrt(config.sigma_b2))
    return DeepNet(config, weights, biases)


CONFIGS = pytest.mark.parametrize(
    "config",
    [
        NetworkConfig(n=12, hidden_widths=(12, 12), seed=3),
        NetworkConfig(n=9, hidden_widths=(13, 5, 7), sigma_b2=0.4, seed=8),
        NetworkConfig(n=7, hidden_widths=(11,), sigma_b2=1.5),
    ],
    ids=["two-layers", "widths-13-5-7", "one-layer"],
)


class TestDrawingAhead:
    """sample_network claims a net that drawing_ahead's helper drew, in
    whole or in part, on another thread into arrays allocated on the calling
    thread. The size gate is set to 1 so that these small nets are drawn
    ahead."""

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 40),
        widths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        sigma_b2=st.sampled_from([0.0, 0.3, 1.7]),
        block=st.integers(1, 64),
        seed=st.integers(0, 2**64 - 1),
        trial=st.integers(0, 1000),
    )
    def test_block_draw_equals_whole_array_draw(self, n, widths, sigma_b2, block, seed, trial):
        """Blocks of at most `block` normals, or one row wider than that,
        draw the bytes of one fill per array."""
        config = NetworkConfig(n=n, hidden_widths=tuple(widths), sigma_b2=sigma_b2, seed=seed)
        with mock.patch.object(nets, "_BLOCK_NORMALS", block):
            draw = nets._NetDraw(config, trial)
            assert all(b.size <= max(block, b[0].size) for b, _ in draw.blocks)
            net = DeepNet(config, *draw.claim())
        assert_same_net(net, whole_array_draw(config, trial))

    @CONFIGS
    def test_net_drawn_ahead_equals_inline_draw(self, monkeypatch, config):
        """Every W and b of a net that the helper drew whole is the inline
        draw's, and is an array that the calling thread allocated."""
        monkeypatch.setattr(nets, "_AHEAD_MIN_NORMALS", 1)
        inline = [sample_network(config, t) for t in (0, 5)]
        draws = spy_net_draws(monkeypatch)
        allocated = []
        real_empty = nets._empty_net

        def empty_net(config):
            arrays = real_empty(config)
            allocated.append((threading.current_thread(), arrays))
            return arrays

        monkeypatch.setattr(nets, "_empty_net", empty_net)
        with drawing_ahead() as draw:
            for trial, expected in zip((0, 5), inline):
                draw(config, trial)
                nets._drawn_ahead[config, trial].helper.result(timeout=10)
                net = sample_network(config, trial)
                assert_same_net(net, expected)
                thread, (weights, biases) = allocated[-1]
                assert thread is threading.main_thread()
                for array, held in zip(weights + biases, net.weights + net.biases):
                    assert np.shares_memory(array, held)
        assert len(draws) == len(allocated) == 2
        assert put_ahead(draws) == [True, True]
        for threads in (draw.block_threads for draw in draws):  # all drawn by the helper
            assert len(threads) == off_main(threads) > 0
        assert nets._drawn_ahead == {}

    @CONFIGS
    def test_net_claimed_after_any_number_of_helper_blocks_equals_whole_array_draw(
        self, monkeypatch, config
    ):
        """For every j, a net that the helper drew exactly j blocks of
        before it was claimed is the reference draw (j = 0: the inline
        draw). Blocks of at most 4 normals make rows wider than a block."""
        monkeypatch.setattr(nets, "_AHEAD_MIN_NORMALS", 1)
        monkeypatch.setattr(nets, "_BLOCK_NORMALS", 4)
        expected = whole_array_draw(config, 7)
        assert_same_net(sample_network(config, 7), expected)
        blocks = len(nets._NetDraw(config, 7).blocks)
        real = nets._NetDraw._draw_block
        for j in range(1, blocks + 1):

            def draw_block(self):
                real(self)
                if threading.current_thread() is not threading.main_thread() and self.drawn == j:
                    self.claimed = True  # as claim would here: the helper stops

            monkeypatch.setattr(nets._NetDraw, "_draw_block", draw_block)
            with drawing_ahead() as draw:
                draw(config, 7)
                entry = nets._drawn_ahead[config, 7]
                entry.helper.result(timeout=10)
                assert entry.drawn == j
                assert_same_net(sample_network(config, 7), expected)

    def test_helper_exception_is_raised_by_the_claiming_call(self, monkeypatch):
        """An exception the helper raised while drawing a net is raised by
        the sample_network call that claims that net, not lost with the
        helper's future; no entry is left, and a later call draws inline."""
        monkeypatch.setattr(nets, "_AHEAD_MIN_NORMALS", 1)
        config = NetworkConfig(n=12, hidden_widths=(12, 12), seed=3)
        expected = sample_network(config, 0)
        real = nets._NetDraw._draw_block

        def draw_block(self):
            if threading.current_thread() is not threading.main_thread() and self.drawn == 2:
                raise RuntimeError("fault on the helper")
            real(self)

        monkeypatch.setattr(nets._NetDraw, "_draw_block", draw_block)
        before = threading.active_count()
        with drawing_ahead() as draw:
            draw(config, 0)
            futures.wait([nets._drawn_ahead[config, 0].helper], timeout=10)
            with pytest.raises(RuntimeError, match="fault on the helper"):
                sample_network(config, 0)
            assert nets._drawn_ahead == {}
            assert_same_net(sample_network(config, 0), expected)
        assert threading.active_count() == before

    def test_only_the_same_config_and_trial_takes_an_entry(self, monkeypatch):
        monkeypatch.setattr(nets, "_AHEAD_MIN_NORMALS", 1)
        config = NetworkConfig(n=9, hidden_widths=(13, 5, 7), sigma_b2=0.4, seed=8)
        others = [
            (config, 4),
            (dataclasses.replace(config, seed=9), 5),
            (dataclasses.replace(config, sigma_b2=0.5), 5),
            (dataclasses.replace(config, hidden_widths=(13, 5, 8)), 5),
        ]
        expected = {key: sample_network(*key) for key in [(config, 5), *others]}
        draws = spy_net_draws(monkeypatch)
        with drawing_ahead() as draw:
            draw(config, 5)
            for key in others:
                assert_same_net(sample_network(*key), expected[key])
                assert list(nets._drawn_ahead) == [(config, 5)]
            assert_same_net(sample_network(config, 5), expected[config, 5])
            assert nets._drawn_ahead == {}
        assert put_ahead(draws) == [True] + [False] * len(others)

    def test_keeps_two_entries_untaken_and_none_after_exit(self, monkeypatch):
        """An entry no sample_network took (a faked sampler's) is dropped
        when the third one after it is put, and every entry goes on exit,
        an interrupt's included; the helper thread is gone then too."""
        monkeypatch.setattr(nets, "_AHEAD_MIN_NORMALS", 1)
        config = NetworkConfig(n=6, hidden_widths=(6, 6))
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            with drawing_ahead() as draw:
                for trial in range(6):
                    draw(config, trial)
                    assert list(nets._drawn_ahead) == [(config, t) for t in range(trial + 1)][-3:]
                raise KeyboardInterrupt
        assert nets._drawn_ahead == {}
        assert threading.active_count() == before

    def test_serial_closest_run_calls_traced_functions_on_main_thread_only(self, monkeypatch):
        """On two CPUs a serial closest run at n = 128, the size gate itself,
        puts every net but the first for the helper, and every function
        that perfbench's single-stack tracer wraps runs on the main
        thread."""
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        calls = spy_traced_calls(monkeypatch)
        draws = spy_net_draws(monkeypatch)
        before = threading.active_count()
        run_experiment(ExperimentConfig(KIND_CLOSEST, n_values=(128,), trials=4))
        assert sorted(put_ahead(draws)) == [False, True, True, True]
        assert len(calls["nets.sample_network"]) == len(calls["search.greedy_search"]) == 4
        assert not any(map(off_main, calls.values()))
        assert threading.active_count() == before and nets._drawn_ahead == {}

    def test_small_nets_are_left_to_sample_network(self, monkeypatch):
        """A net of fewer than 2^15 normals is drawn inline and starts no
        thread. Two hidden layers of width n hold 2n^2 + 3n + 1 normals:
        below the gate at n = 127, above it at n = 128. n = 8 with hidden
        widths 1024, 64 holds 74,881, and its first layer 8,192."""
        small = NetworkConfig(n=127, hidden_widths=(127, 127))
        large = [
            NetworkConfig(n=128, hidden_widths=(128, 128)),
            NetworkConfig(n=8, hidden_widths=(1024, 64)),
        ]
        assert [nets._normals(c) for c in [small, *large]] == [32640, 33153, 74881]
        draws = spy_net_draws(monkeypatch)
        before = threading.active_count()
        with drawing_ahead() as draw:
            draw(small, 0)
            assert nets._drawn_ahead == {}
            sample_network(small, 0)
            assert threading.active_count() == before
            for config in large:
                draw(config, 0)
                assert list(nets._drawn_ahead) == [(config, 0)]
                sample_network(config, 0)
        assert put_ahead(draws) == [False, True, True]


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


def screened(net, x, z1, first=None):
    """A new FlipScreen(net, x) called at z1, after a first call at first,
    whose product it keeps, if first is given."""
    screen = FlipScreen(net, x)
    if first is not None:
        screen(first)
    return screen(z1)


def assert_bound_holds(net, z1, x, first=None):
    """|phi32 - phi64| <= eps on every flip z1 + flip_rows(net, x, i), against
    the float64 pass over the whole batch and over each row alone, with the
    screen run on every flip and on each flip alone: screened(.., first)."""
    rows = flip_rows(net, x, slice(None)) + z1
    phi32, eps = screened(net, x, z1, first)
    assert phi32.dtype == eps.dtype == np.float64
    assert np.all(np.abs(phi32 - forward_from_first_layer(net, rows)) <= eps)
    for i in range(len(rows)):  # one-row batches take other BLAS kernels
        single = forward_from_first_layer(net, rows[i : i + 1])[0]
        assert abs(phi32[i] - single) <= eps[i]
        one = one_input_net(net, i), BitString(x.signs[i : i + 1])
        phi32_i, eps_i = screened(*one, z1, first)
        assert abs(phi32_i[0] - single) <= eps_i[0]


def moved_screen(n, widths, sigma_w2, sigma_b2, seed, scale, steps, lo=-1.0):
    """A net as in test_bound_holds_on_every_row, a first z1 in [lo, 3]
    times the flip bound hi, which puts the units above hi (about half, or
    every unit at lo = 1) on in every flip, and that z1 moved by `steps`
    flip rows, as greedy moves it: (net, x, first, z1, left), left the
    units on in every flip at first but not at z1."""
    config = NetworkConfig(
        n=n, hidden_widths=tuple(widths), sigma_w2=sigma_w2, sigma_b2=sigma_b2, seed=seed
    )
    rng = np.random.default_rng(seed)
    flips = rng.standard_normal((widths[0], n)) * scale
    x = BitString.random(n, rng)
    net = with_flips(sample_network(config, 0), flips, x)
    hi = net._screen.hi
    first = z1 = hi * rng.uniform(lo, 3.0, widths[0])
    for i in rng.choice(n, min(steps, n), replace=False):
        z1 = z1 + flip_rows(net, x, i)
    return net, x, first, z1, (first - hi > 0.0) & ~(z1 - hi > 0.0)


@pytest.mark.usefixtures("screen_at_any_size")
class TestFloat32Screen:
    """FlipScreen's float32 tail and its bound: |phi32 - phi64| <= eps for
    any float64 evaluation of a row, with no tolerance beyond eps."""

    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(1, 24),
        widths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        sigma_w2=st.floats(0.25, 4.0),
        sigma_b2=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),  # 0: no bias vector kept
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

    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(1, 24),
        widths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        sigma_w2=st.floats(0.25, 4.0),
        sigma_b2=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([1e-30, 1e-3, 1.0, 1e3]),
        steps=st.integers(1, 3),
        lo=st.sampled_from([-1.0, 1.0]),
    )
    def test_bound_holds_after_the_kept_step(
        self, n, widths, sigma_w2, sigma_b2, seed, scale, steps, lo
    ):
        """A screen that keeps its product at one z1, called there and at z1
        moved by one to three flip rows, so that units may leave the kept
        set. At lo = 1 every unit is kept at first: on a net of one hidden
        layer the kept product's term is then all of eps but the constant."""
        net, x, first, z1, _ = moved_screen(n, widths, sigma_w2, sigma_b2, seed, scale, steps, lo)
        assert_bound_holds(net, first, x)
        assert_bound_holds(net, z1, x, first)

    @pytest.mark.parametrize("lo", [-1.0, 1.0])
    @pytest.mark.parametrize("sigma_b2", [0.0, 0.4])
    @pytest.mark.parametrize("widths", [(40,), (40, 12), (40, 8, 16)])
    def test_units_leave_the_kept_set(self, widths, sigma_b2, lo):
        """moved_screen at pinned draws: units do leave the kept set."""
        net, x, first, z1, left = moved_screen(24, widths, 2.0, sigma_b2, 5, 1.0, 3, lo)
        assert 0 < left.sum() < (first - net._screen.hi > 0.0).sum()
        assert_bound_holds(net, first, x)
        assert_bound_holds(net, z1, x, first)

    @pytest.mark.parametrize("dead", ["none", "most", "all", "most, the rest kept", "all leave"])
    @pytest.mark.parametrize("n, widths", [(64, (64, 64)), (40, (96, 24, 32)), (24, (48,))])
    def test_bound_holds_with_dead_units(self, n, widths, dead):
        """Every flip of a sampled net, with z1 chosen so that no first-layer
        unit, all but one in eight, or every unit is off in every row; so
        that the one in eight are on in every row by the flip bound, so the
        kept product covers every live unit; or after a first call at
        which every unit was, at a z1 where none is."""
        config = NetworkConfig(n=n, hidden_widths=widths, sigma_b2=0.3, seed=3)
        net = sample_network(config, 1)
        x = BitString.random(n, np.random.default_rng(n))
        hi = net._screen.hi
        z1 = 1.0 - flip_rows(net, x, slice(None)).min(axis=0)  # on in every row
        first = None
        if dead == "most, the rest kept":
            z1 = 1.0 + hi
        if dead in ("most", "all", "most, the rest kept"):
            off = slice(None) if dead == "all" else np.arange(widths[0]) % 8 != 0
            z1[off] = -0.5 - 2.0 * np.abs(net.weights[0][off]).max(axis=1)
        if dead == "all leave":
            first, z1 = 1.0 + hi, hi - 1.0
        screen = FlipScreen(net, x)
        screen(z1 if first is None else first)
        live, kept = _live_units(z1, hi), np.flatnonzero(screen.kept.on)
        if dead == "all leave":
            assert len(kept) == widths[0] and not np.any(z1 - hi > 0.0)
        else:
            expected = {"none": widths[0], "most": (widths[0] + 7) // 8, "all": 0}
            assert len(live) == expected.get(dead, (widths[0] + 7) // 8)
            assert (set(kept) == set(live)) or dead != "most, the rest kept"
        assert_bound_holds(net, z1, x, first)

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
        row, or whose float32 rounding FlipScreen feeds to ReLU is, stays
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
        _, eps = FlipScreen(net, x)(z1)
        for k in (1, 2, 3, 7):
            rows = np.sort(rng.choice(n, k, replace=False))
            sub = forward_from_first_layer(net, batch[rows])
            assert np.all(np.abs(sub - full[rows]) <= FLOAT64_SPREAD * eps[rows])

    def test_exact_arithmetic_gives_exact_values(self):
        net = build_linear_net([5.0, -3.0, 9.0, 1.0, -7.0])
        for signs in np.random.default_rng(3).choice([-1.0, 1.0], size=(9, 5)):
            x = BitString(signs)
            _, z1 = forward_with_first_layer_cache(net, x)
            phi32, eps = FlipScreen(net, x)(z1)
            rows = flip_rows(net, x, slice(None)) + z1
            np.testing.assert_array_equal(phi32, forward_from_first_layer(net, rows))
            assert np.all(eps > 0.0)

    @pytest.mark.parametrize("scale", [3e38, 1e39])
    def test_float32_overflow_gives_none(self, scale):
        """The tail's weights fit float32, the preactivations do not: z1
        itself (1e39) or the second layer's (a sum of five 3e38). The call
        keeps nothing, so the next one, at a small z1, keeps afresh and is
        exact."""
        config = NetworkConfig(n=6, hidden_widths=(5, 4))
        weights = [np.ones((5, 6)), np.ones((4, 5)), np.ones((1, 4))]
        net = DeepNet(config, weights, [np.zeros(5), np.zeros(4), np.zeros(1)])
        z1, x = np.full(5, scale), BitString(np.ones(6))
        assert net._screen is not None
        screen = FlipScreen(net, x)
        assert screen(z1) is None
        rows = flip_rows(net, x, slice(None)) + z1
        assert np.all(np.isfinite(forward_from_first_layer(net, rows)))
        phi32, _ = screen(np.full(5, 3.0))
        np.testing.assert_array_equal(phi32, np.full(6, 20.0))  # 4 * 5 * (3 - 2)

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
            assert (FlipScreen(net, x)(z1) is None) == (activation != "relu")


@pytest.mark.parametrize("n, screened", [(202, False), (203, True)])
def test_screen_size_gate_for_two_hidden_layers_of_n(n, screened):
    """A screen of n flips through two hidden layers of width n costs
    n (n^2 + n) tail multiply-adds, which reaches 2^23 from n = 203 on:
    203 * 41412 = 8,406,636, while 202 * 41006 = 8,283,212."""
    net = sample_network(NetworkConfig(n, (n, n)), 0)
    assert (net._screen is not None) == screened


@pytest.mark.parametrize("zero", [1, 2])
def test_greedy_through_a_zero_and_a_nonzero_tail_bias(monkeypatch, zero):
    """A net above the size gate whose tail has one hidden bias vector of
    zeros, which the screen keeps no copy of and adds nowhere, and one
    that is not: greedy through the screen takes the float64 pass's path,
    distance and evaluations, and the screen decides some steps."""
    config = NetworkConfig(n=256, hidden_widths=(256, 256, 64), sigma_b2=0.3, seed=12)
    sampled = sample_network(config, 0)
    biases = list(sampled.biases)
    biases[zero] = np.zeros_like(biases[zero])
    net = DeepNet(config, sampled.weights, biases)
    assert [b is None for b in net._screen.biases] == [zero == 1, zero == 2, False]
    x = BitString.random(256, np.random.default_rng(zero))
    rows = []
    real = search.forward_from_first_layer
    monkeypatch.setattr(
        search, "forward_from_first_layer", lambda net, z1: rows.append(len(z1)) or real(net, z1)
    )
    screened = greedy_search(net, x)
    assert min(rows) < 256  # a screened step's contenders
    monkeypatch.setattr(search, "FlipScreen", lambda net, x: lambda z1: None)
    del rows[:]
    float64 = greedy_search(net, x)
    assert set(rows) == {256}  # every step's float64 pass over every flip
    assert (screened.path, screened.distance, screened.evaluations) == (
        float64.path, float64.distance, float64.evaluations
    )


@pytest.mark.parametrize("sigma_b2", [0.0, 0.5])
@pytest.mark.parametrize("n, widths", [(512, (512, 512)), (256, (256, 256, 64))])
def test_greedy_through_the_kept_product(monkeypatch, n, widths, sigma_b2):
    """Nets above the size gate, two hidden layers at n = 512 and three at
    n = 256: greedy through a screen that keeps its first step's product
    takes the float64 pass's path, distance and evaluations, units leave
    the kept set at some later step, the screen decides some steps, and
    every step's phi is within its eps of the float64 pass over every flip."""
    config = NetworkConfig(n=n, hidden_widths=widths, sigma_b2=sigma_b2, seed=21)
    nets_and_xs = [
        (sample_network(config, trial), BitString.random(n, np.random.default_rng(trial)))
        for trial in range(3)
    ]
    calls, rows = [], []

    class Spy(FlipScreen):
        def __init__(self, net, x):
            super().__init__(net, x)
            self.x = x

        def __call__(self, z1):
            result = super().__call__(z1)
            calls.append((self, z1, result))
            return result

    real = search.forward_from_first_layer
    monkeypatch.setattr(
        search, "forward_from_first_layer", lambda net, z1: rows.append(len(z1)) or real(net, z1)
    )
    monkeypatch.setattr(search, "FlipScreen", Spy)
    screened = [greedy_search(net, x) for net, x in nets_and_xs]
    assert min(rows) < n  # a screened step's contenders
    left = [np.count_nonzero(s.kept.on & ~(z1 - s.tail.hi > 0.0)) for s, z1, _ in calls]
    assert max(left) > 0
    for screen, z1, (phi32, eps) in calls:
        batch = flip_rows(screen.net, screen.x, slice(None)) + z1
        assert np.all(np.abs(phi32 - real(screen.net, batch)) <= eps)
    monkeypatch.setattr(search, "FlipScreen", lambda net, x: lambda z1: None)
    del rows[:]
    float64 = [greedy_search(net, x) for net, x in nets_and_xs]
    assert set(rows) == {n}  # every step's float64 pass over every flip
    assert [(r.path, r.distance, r.evaluations) for r in screened] == [
        (r.path, r.distance, r.evaluations) for r in float64
    ]
