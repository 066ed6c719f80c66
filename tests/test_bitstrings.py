"""Bit strings as read-only float64 sign vectors."""

import numpy as np
import pytest

from bitboundary.bitstrings import BitString
from bitboundary.errors import ConfigError


class TestConstruction:
    def test_constructor_round_trip(self):
        signs = [1, -1, -1, 1, -1, 1, 1, 1, -1, 1, -1]
        x = BitString(signs)
        assert x.n == 11
        assert x.signs.dtype == np.float64
        np.testing.assert_array_equal(x.signs, np.asarray(signs, dtype=float))

    def test_random_matches_generator_bits(self):
        x = BitString.random(20, np.random.default_rng(5))
        bits = np.random.default_rng(5).integers(0, 2, size=20, dtype=np.uint8)
        np.testing.assert_array_equal(x.signs, 1.0 - 2.0 * bits)

    def test_invalid_inputs(self):
        for bad in ([1, 0, -1], [], [[1, -1], [1, 1]], 1.0, [np.nan], [np.inf], ["a"],
                    ["1", "-1"], [True, True]):
            with pytest.raises(ConfigError):
                BitString(bad)

    def test_views_are_read_only(self):
        source = np.ones(8)
        x = BitString(source)
        with pytest.raises(ValueError):
            x.signs[0] = -1.0
        source[0] = -1.0  # the caller's array is copied, not shared
        assert x.signs[0] == 1.0


class TestCubeOperations:
    def test_flip_changes_exactly_one_entry(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 70))
            x = BitString.random(n, rng)
            i = int(rng.integers(0, n))
            y = x.flip_many((i,))
            assert y.signs[i] == -x.signs[i]
            assert np.count_nonzero(y.signs != x.signs) == 1
            np.testing.assert_array_equal(y.flip_many((i,)).signs, x.signs)

    def test_flip_many_matches_sign_product(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(4, 80))
            x = BitString.random(n, rng)
            k = int(rng.integers(0, n + 1))
            idx = rng.choice(n, size=k, replace=False)
            mask = np.ones(n)
            mask[idx] = -1.0
            y = x.flip_many(idx)
            np.testing.assert_array_equal(y.signs, x.signs * mask)
            assert int(x.signs @ y.signs) == n - 2 * k

    def test_flip_index_out_of_range(self):
        x = BitString(np.ones(8))
        for bad in ((8,), (-1,), (0, 8)):
            with pytest.raises(ConfigError):
                x.flip_many(bad)
        np.testing.assert_array_equal(x.flip_many(()).signs, x.signs)


class TestIdentity:
    def test_digest_distinguishes_length(self):
        # both pack to the single byte 0x00
        assert BitString(np.ones(3)).digest() != BitString(np.ones(4)).digest()

    def test_digest_stable(self):
        x = BitString([-1, 1, -1, -1, 1])
        assert x.digest() == BitString([-1, 1, -1, -1, 1]).digest()
        assert x.digest() != x.flip_many((1,)).digest()
        assert len(x.digest()) == 32  # blake2b-128 hex
