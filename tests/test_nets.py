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
