"""Boundary searches: greedy descent, exhaustive shells, random walks.

Linear nets built from integer weights make every arithmetic step exact, so
greedy and exact results are hand-derivable: for phi(x) = w . x the minimal
flip count is the smallest k with 2 * (sum of the k largest s0 x_i w_i)
exceeding s0 phi, and greedy flips exactly those bits in that order.
"""

import itertools
import math

import numpy as np
import pytest

from bitboundary.bitstrings import BitString
from bitboundary.errors import BudgetExceededError, ConfigError
from bitboundary.nets import (
    NetworkConfig,
    classify,
    forward,
    sample_network,
)
from bitboundary.rng import STREAM_WALK, spawn_rng
from bitboundary.search import (
    exact_search,
    greedy_search,
    random_flip_walk,
)

from conftest import build_constant_net, build_linear_net


class TestGreedyOnLinearNets:
    def test_flips_largest_contributions_first(self):
        net = build_linear_net([5.0, 3.0, 9.0, 1.0, 7.0])
        x = BitString.all_plus(5)  # phi = 25
        res = greedy_search(net, x)
        # needs sum of largest products > 12.5: 9 + 7 = 16, so distance 2
        assert res.distance == 2
        assert res.path == (2, 4)
        assert res.start_phi == 25.0

    def test_mixed_signs(self):
        net = build_linear_net([5.0, 3.0, 9.0, 1.0, 7.0])
        x = BitString.from_signs([1, -1, 1, -1, -1])  # phi = 3
        res = greedy_search(net, x)
        assert res.distance == 1
        assert res.path == (2,)

    def test_negative_start(self):
        net = build_linear_net([4.0, 3.0, 2.0, 1.0])
        x = BitString.from_signs([-1, -1, -1, -1])  # phi = -10, s0 = -1
        res = greedy_search(net, x)
        assert res.distance == 2
        assert res.path == (0, 1)  # +8 then +6 crosses zero

    def test_tie_breaks_to_lowest_index(self):
        net = build_linear_net([2.0, 2.0, 2.0, 2.0, 1.0])
        res = greedy_search(net, BitString.all_plus(5))  # phi = 9
        assert res.distance == 3
        assert res.path == (0, 1, 2)

    def test_evaluation_accounting(self):
        net = build_linear_net([4.0, 3.0, 2.0, 1.0])
        res = greedy_search(net, BitString.all_plus(4))
        assert res.distance == 2
        assert res.evaluations == 4 + 3

    def test_no_boundary_returns_none(self):
        net = build_constant_net(6, 3.0)
        res = greedy_search(net, BitString.all_plus(6))
        assert res.distance is None
        assert len(res.path) == 6  # exhausted every bit once

    def test_max_steps_cap(self):
        net = build_linear_net([3.0, 3.0, 3.0, 3.0, 3.0])
        x = BitString.all_plus(5)  # phi = 15; three flips of -6 to cross
        assert greedy_search(net, x).distance == 3
        res = greedy_search(net, x, max_steps=2)
        assert res.distance is None
        assert len(res.path) == 2
        with pytest.raises(ConfigError):
            greedy_search(net, x, max_steps=0)
        with pytest.raises(ConfigError):
            greedy_search(net, x, max_steps=6)

    def test_input_length_checked(self):
        net = build_linear_net([1.0, 2.0])
        with pytest.raises(ConfigError):
            greedy_search(net, BitString.all_plus(3))


class TestExactSearch:
    def test_full_cube_oracle(self):
        """Against brute-force enumeration of all 2^10 strings on sampled
        networks: the returned distance is the true minimum."""
        n = 10
        all_signs = np.array(
            list(itertools.product([-1.0, 1.0], repeat=n)), dtype=float
        )
        rng = np.random.default_rng(864)
        for trial in range(20):
            config = NetworkConfig(n=n, hidden_widths=(n, n), seed=int(rng.integers(1 << 30)))
            net = sample_network(config, trial)
            x = BitString.random(n, rng)
            from bitboundary.nets import forward_batch

            phis = forward_batch(net, all_signs)
            classes = phis >= 0.0
            x_class = forward(net, x) >= 0.0
            ham = np.sum(all_signs != x.signs[None, :], axis=1)
            other = ham[classes != x_class]
            true_min = int(other.min()) if other.size else None

            res = exact_search(net, x)
            assert res.distance == true_min
            if true_min is not None:
                flipped = x.flip_many(res.path)
                assert len(res.path) == true_min
                assert (forward(net, flipped) >= 0.0) != x_class

    def test_lexicographic_first_hit(self):
        net = build_linear_net([4.0, 3.0, 2.0, 1.0])
        res = exact_search(net, BitString.all_plus(4))  # min distance 2
        assert res.distance == 2
        assert res.path == (0, 1)  # first h=2 combination already crosses

    def test_agrees_with_greedy_linear_hand_case(self):
        net = build_linear_net([5.0, 3.0, 9.0, 1.0, 7.0])
        x = BitString.all_plus(5)
        assert exact_search(net, x).distance == greedy_search(net, x).distance == 2

    def test_no_boundary_enumerates_everything(self):
        n = 8
        net = build_constant_net(n, -1.5)
        res = exact_search(net, BitString.all_plus(n))
        assert res.distance is None
        assert res.path is None
        assert res.evaluations == 2**n - 1

    def test_max_h_limits_shells(self):
        net = build_linear_net([4.0, 3.0, 2.0, 1.0])
        res = exact_search(net, BitString.all_plus(4), max_h=1)
        assert res.distance is None
        assert res.evaluations == 4

    def test_budget_checked_before_each_shell(self):
        n = 30
        net = build_constant_net(n, 2.0)
        x = BitString.all_plus(n)
        # C(30,1) = 30 fits in 400; adding C(30,2) = 435 would not
        with pytest.raises(BudgetExceededError) as info:
            exact_search(net, x, budget=400)
        assert info.value.largest_searched_h == 1
        assert info.value.exit_code == 3
        with pytest.raises(BudgetExceededError) as info:
            exact_search(net, x, budget=10)
        assert info.value.largest_searched_h == 0


class TestRandomFlipWalk:
    def test_passthrough_walk_hits_when_bit_zero_flips(self):
        """For phi(x) = x_0 the walk flips sign exactly when the permutation
        reaches bit 0, so the distance equals that position + 1."""
        n = 33
        rng = np.random.default_rng(6)
        for trial in range(60):
            seed = int(rng.integers(1 << 30))
            net = build_linear_net([1.0] + [0.0] * (n - 1), seed=seed)
            x = BitString.random(n, rng)
            res = random_flip_walk(net, x, trial)
            perm = spawn_rng(seed, STREAM_WALK, trial).permutation(n)
            expected = int(np.flatnonzero(perm == 0)[0]) + 1
            assert res.distance == expected
            assert res.path == tuple(int(v) for v in perm[:expected])

    def test_walk_matches_naive_replay(self):
        """The blocked vectorized walk equals a naive one-flip-at-a-time
        replay on sampled networks, including across the 64-step block
        boundary."""
        n = 70
        config = NetworkConfig(n=n, hidden_widths=(32, 32), seed=15)
        rng = np.random.default_rng(10)
        for trial in range(12):
            net = sample_network(config, trial)
            x = BitString.random(n, rng)
            res = random_flip_walk(net, x, trial)
            perm = spawn_rng(config.seed, STREAM_WALK, trial).permutation(n)
            start = classify(net, x)
            cur = x
            naive = None
            for step, bit in enumerate(perm, start=1):
                cur = cur.flip(int(bit))
                if classify(net, cur) != start:
                    naive = step
                    break
            assert res.distance == (naive if naive is not None else n)

    def test_no_boundary_caps_at_n(self):
        n = 12
        net = build_constant_net(n, 1.0, seed=3)
        res = random_flip_walk(net, BitString.all_plus(n), 0)
        assert res.distance == n
        assert res.evaluations == n
        assert len(res.path) == n
        assert sorted(res.path) == list(range(n))

    def test_deterministic_per_trial(self):
        config = NetworkConfig(n=16, hidden_widths=(16,), seed=8)
        net = sample_network(config, 0)
        x = BitString.random(16, np.random.default_rng(4))
        a = random_flip_walk(net, x, 5)
        b = random_flip_walk(net, x, 5)
        assert a.distance == b.distance and a.path == b.path
        c = random_flip_walk(net, x, 6)
        assert a.path != c.path


class TestGreedyNeverBeatsExact:
    def test_paired_small_instances(self):
        """Greedy distance is an upper bound on the true distance whenever
        both terminate (unit-scale twin of the paired acceptance run)."""
        n = 10
        rng = np.random.default_rng(27)
        both = 0
        for trial in range(40):
            config = NetworkConfig(n=n, hidden_widths=(n, n), seed=int(rng.integers(1 << 30)))
            net = sample_network(config, trial)
            x = BitString.random(n, rng)
            g = greedy_search(net, x)
            e = exact_search(net, x)
            if g.distance is not None and e.distance is not None:
                both += 1
                assert g.distance >= e.distance
            if g.distance is not None:
                assert e.distance is not None  # a greedy hit implies a boundary exists
        assert both >= 30  # the property must actually get exercised
