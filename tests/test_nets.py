"""Network sampling, forward paths, first-layer reuse, and SBNW weight files."""

import struct
import zlib

import numpy as np
import pytest

from bitboundary.bitstrings import BitString
from bitboundary.errors import ConfigError
from bitboundary.nets import (
    DeepNet,
    NetworkConfig,
    classify,
    forward,
    forward_batch,
    forward_from_first_layer,
    forward_with_first_layer_cache,
    load_weights,
    sample_network,
    sample_outputs,
    save_weights,
    sign_with_tie,
)

from conftest import build_constant_net, build_linear_net


class TestNetworkConfig:
    def test_dims_and_depth(self):
        config = NetworkConfig(n=9, hidden_widths=(4, 7))
        assert config.dims == (9, 4, 7, 1)
        assert config.depth == 2

    def test_default_architecture(self):
        config = NetworkConfig.default(32, seed=5)
        assert config.hidden_widths == (32, 32)
        assert config.sigma_w2 == 2.0 and config.sigma_b2 == 0.0
        assert config.activation == "relu"
        assert config.seed == 5

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
        assert a.digest == b.digest
        assert a.digest != c.digest
        for w1, w2 in zip(a.weights, b.weights):
            np.testing.assert_array_equal(w1, w2)

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

    def test_w1_columns_view(self):
        net = sample_network(NetworkConfig(n=5, hidden_widths=(7, 4)), 1)
        np.testing.assert_array_equal(net.w1_columns, net.weights[0].T)
        assert net.w1_columns.flags.c_contiguous

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
        direct = np.array([sample_outputs(config, t, signs) for t in range(trials)])
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
        signs = _probe_signs(64, 8, seed=1)
        for trial in range(20):
            phi = sample_outputs(config, trial, signs)
            np.testing.assert_allclose(phi[1], phi[0], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n, m", [(12, 4), (64, 8), (4, 8)])
    def test_qr_factor_reproduces_gram_matrix(self, n, m):
        h = _probe_signs(n, m, seed=3).T
        r = np.linalg.qr(h, mode="r")
        assert r.shape == (min(n, m), m)
        np.testing.assert_allclose(r.T @ r, h.T @ h, rtol=0.0, atol=1e-12 * n)

    def test_deterministic_per_trial(self):
        config = NetworkConfig(n=16, hidden_widths=(16, 16), sigma_b2=0.1, seed=11)
        signs = _probe_signs(16, 8, seed=2)
        a = sample_outputs(config, 3, signs)
        np.testing.assert_array_equal(a, sample_outputs(config, 3, signs))
        assert not np.array_equal(a, sample_outputs(config, 4, signs))

    def test_wrong_width_rejected(self):
        config = NetworkConfig(n=8, hidden_widths=(8, 8))
        with pytest.raises(ConfigError):
            sample_outputs(config, 0, np.ones((4, 9)))
        with pytest.raises(ConfigError):
            sample_outputs(config, 0, np.ones(8))


class TestForward:
    def test_hand_computed_relu_net(self):
        # W1 = [[1, -1], [0.5, 2]], b1 = (0.25, -0.5); W2 = [[1, -2]], b2 = 0.75
        config = NetworkConfig(n=2, hidden_widths=(2,), sigma_b2=1.0)
        net = DeepNet(
            config,
            [np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[1.0, -2.0]])],
            [np.array([0.25, -0.5]), np.array([0.75])],
        )
        x = BitString.from_signs([1, -1])  # z1 = (2.25, -2.0) -> h = (2.25, 0)
        assert forward(net, x) == 2.25 + 0.75
        y = BitString.from_signs([-1, 1])  # z1 = (-1.75, 1.0) -> h = (0, 1.0)
        assert forward(net, y) == -2.0 + 0.75

    def test_linear_construction_is_exact(self):
        net = build_linear_net([5.0, -3.0, 9.0, 1.0, -7.0])
        rng = np.random.default_rng(12)
        for _ in range(20):
            signs = rng.choice([-1.0, 1.0], size=5)
            x = BitString.from_signs(signs)
            assert forward(net, x) == float(np.dot([5.0, -3.0, 9.0, 1.0, -7.0], signs))

    def test_batch_matches_single(self):
        net = sample_network(NetworkConfig(n=12, hidden_widths=(12, 12)), 2)
        rng = np.random.default_rng(8)
        block = rng.choice([-1.0, 1.0], size=(16, 12))
        batch = forward_batch(net, block)
        singles = [forward(net, BitString.from_signs(row)) for row in block]
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-12)

    def test_input_length_checked(self):
        net = sample_network(NetworkConfig(n=6, hidden_widths=(4,)), 0)
        with pytest.raises(ConfigError):
            forward(net, BitString.all_plus(7))
        with pytest.raises(ConfigError):
            forward_batch(net, np.ones((2, 7)))

    def test_classify_and_tie_rule(self):
        assert sign_with_tie(0.0) == 1
        assert sign_with_tie(1e-300) == 1
        assert sign_with_tie(-1e-300) == -1
        net = build_constant_net(4, -2.5)
        assert classify(net, BitString.all_plus(4)) == -1
        assert classify(build_constant_net(4, 0.0), BitString.all_plus(4)) == 1


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
            forward_with_first_layer_cache(net, BitString.all_plus(11))

    def test_single_flip_matches_full_forward(self):
        net = sample_network(NetworkConfig(n=14, hidden_widths=(14, 14)), 7)
        rng = np.random.default_rng(2)
        x = BitString.random(14, rng)
        _, z1 = forward_with_first_layer_cache(net, x)
        # every single flip at once, as one greedy step evaluates them
        z1_flips = z1[None, :] - 2.0 * (x.signs[:, None] * net.w1_columns)
        via_cache = forward_from_first_layer(net, z1_flips)
        for i in range(14):
            direct = forward(net, x.flip(i))
            np.testing.assert_allclose(via_cache[i], direct, rtol=1e-10, atol=1e-12)


class TestWeightFiles:
    def _net(self):
        return sample_network(
            NetworkConfig(n=6, hidden_widths=(5, 4), sigma_b2=0.3, seed=9), 2
        )

    def test_round_trip_is_bitwise(self, tmp_path):
        net = self._net()
        path = tmp_path / "net.sbnw"
        save_weights(net, path)
        loaded = load_weights(path, activation="relu", sigma_w2=2.0, sigma_b2=0.3)
        assert loaded.config.dims == net.config.dims
        for w0, w1 in zip(net.weights, loaded.weights):
            np.testing.assert_array_equal(w0, w1)
        for b0, b1 in zip(net.biases, loaded.biases):
            np.testing.assert_array_equal(b0, b1)
        x = BitString.random(6, np.random.default_rng(0))
        assert forward(net, x) == forward(loaded, x)

    def test_declared_metadata_is_kept(self, tmp_path):
        path = tmp_path / "net.sbnw"
        save_weights(self._net(), path)
        loaded = load_weights(path, activation="tanh", sigma_w2=1.5, sigma_b2=0.1, seed=4)
        assert loaded.config.activation == "tanh"
        assert loaded.config.sigma_w2 == 1.5
        assert loaded.config.seed == 4

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "net.sbnw"
        save_weights(self._net(), path)
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match="CRC"):
            load_weights(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "net.sbnw"
        save_weights(self._net(), path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ConfigError):
            load_weights(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "net.sbnw"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ConfigError, match="not an SBNW"):
            load_weights(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "net.sbnw"
        save_weights(self._net(), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, 99)
        body = bytes(raw[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(ConfigError, match="version"):
            load_weights(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "net.sbnw"
        save_weights(self._net(), path)
        body = path.read_bytes()[:-4]
        body = body[:-16]  # drop two floats, then re-sign
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(ConfigError, match="payload"):
            load_weights(path)

    def test_non_scalar_output_rejected(self, tmp_path):
        # craft a header whose dims end in 2
        dims = (3, 2, 2)
        body = b"SBNW" + struct.pack("<I", 1) + struct.pack("<I", 2)
        body += struct.pack("<3I", *dims)
        floats = np.zeros(2 * 3 + 2 * 2 + 2 + 2, dtype="<f8").tobytes()
        body += floats
        path = tmp_path / "net.sbnw"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(ConfigError, match="scalar-output"):
            load_weights(path)

    def test_digest_tracks_weights(self, tmp_path):
        net = self._net()
        other = sample_network(net.config, 3)
        assert net.digest != other.digest
        assert net.digest == self._net().digest
