"""Stream derivation: SplitMix64 finisher and per-path generators."""

import numpy as np

from bitboundary.rng import (
    STREAM_GP,
    STREAM_INPUT,
    STREAM_NETWORK,
    STREAM_WALK,
    derive_seed,
    spawn_rng,
    splitmix64,
)

MASK64 = (1 << 64) - 1


class TestSplitmix64:
    def test_published_first_output(self):
        """SplitMix64 (Steele, Lea, Flood 2014) seeded at state 0 emits
        0xE220A8397B1DCDAF first; splitmix64 here is exactly that one
        advance-and-finalize step."""
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_frozen_regression_values(self):
        # anchors for the derivation chain; any change breaks byte
        # reproducibility of every experiment output
        assert splitmix64(1) == 0x910A2DEC89025CC1
        assert splitmix64(42) == 0xBDD732262FEB6E95
        assert splitmix64(MASK64) == 0xE4D971771B652C20

    def test_range_and_determinism(self):
        rng = np.random.default_rng(202)
        for _ in range(200):
            x = int(rng.integers(0, 1 << 63)) | (int(rng.integers(0, 2)) << 63)
            out = splitmix64(x)
            assert 0 <= out <= MASK64
            assert splitmix64(x) == out

    def test_avalanche(self):
        """Flipping one input bit flips roughly half the output bits."""
        rng = np.random.default_rng(7)
        flips = []
        for _ in range(300):
            x = int(rng.integers(0, 1 << 62))
            bit = int(rng.integers(0, 64))
            d = splitmix64(x) ^ splitmix64(x ^ (1 << bit))
            flips.append(bin(d).count("1"))
        mean = np.mean(flips)
        assert 24.0 < mean < 40.0


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2, 3) == derive_seed(42, 1, 2, 3)

    def test_path_order_matters(self):
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)

    def test_path_length_matters(self):
        assert derive_seed(42, 1) != derive_seed(42, 1, 0)
        assert derive_seed(42) != derive_seed(42, 0)

    def test_distinct_across_streams(self):
        tags = (STREAM_NETWORK, STREAM_INPUT, STREAM_WALK, STREAM_GP)
        seeds = {derive_seed(42, tag, 5) for tag in tags}
        assert len(seeds) == len(tags)

    def test_no_collisions_over_trial_grid(self):
        seen = set()
        for n in (64, 128, 256, 512):
            for trial in range(500):
                seen.add(derive_seed(42, STREAM_INPUT, n, trial))
        assert len(seen) == 4 * 500

    def test_negative_and_huge_parts_are_masked(self):
        # parts are reduced mod 2^64 before mixing
        assert derive_seed(1, (1 << 64) + 5) == derive_seed(1, 5)


class TestSpawnRng:
    def test_reproducible_streams(self):
        a = spawn_rng(9, STREAM_INPUT, 64, 3).standard_normal(8)
        b = spawn_rng(9, STREAM_INPUT, 64, 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_independent_trials_differ(self):
        a = spawn_rng(9, STREAM_INPUT, 64, 3).standard_normal(8)
        b = spawn_rng(9, STREAM_INPUT, 64, 4).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_stream_marginals_are_standard_normal(self):
        """Pooled draws across many derived streams look N(0, 1); a seeding
        bug that correlated streams would show up in the pooled moments."""
        draws = np.concatenate(
            [spawn_rng(11, STREAM_GP, t).standard_normal(50) for t in range(200)]
        )
        m = draws.size
        assert abs(draws.mean()) < 5.0 / np.sqrt(m)
        assert abs(draws.var() - 1.0) < 5.0 * np.sqrt(2.0 / m)
