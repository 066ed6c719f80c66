"""Boundary searches: greedy descent, exhaustive shells, random walks.

Linear nets built from integer weights make every arithmetic step exact, so
greedy and exact results are hand-derivable: for phi(x) = w . x the minimal
flip count is the smallest k with 2 * (sum of the k largest s0 x_i w_i)
exceeding s0 phi, and greedy flips exactly those bits in that order.
"""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bitboundary import nets, search
from bitboundary.bitstrings import BitString
from bitboundary.errors import BudgetExceededError, ConfigError
from bitboundary.nets import (
    DeepNet,
    NetworkConfig,
    forward,
    forward_batch,
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
        x = BitString(np.ones(5))  # phi = 25
        res = greedy_search(net, x)
        # needs sum of largest products > 12.5: 9 + 7 = 16, so distance 2
        assert res.distance == 2
        assert res.path == (2, 4)
        assert res.start_phi == 25.0

    def test_mixed_signs(self):
        net = build_linear_net([5.0, 3.0, 9.0, 1.0, 7.0])
        x = BitString([1, -1, 1, -1, -1])  # phi = 3
        res = greedy_search(net, x)
        assert res.distance == 1
        assert res.path == (2,)

    def test_negative_start(self):
        net = build_linear_net([4.0, 3.0, 2.0, 1.0])
        x = BitString([-1, -1, -1, -1])  # phi = -10, s0 = -1
        res = greedy_search(net, x)
        assert res.distance == 2
        assert res.path == (0, 1)  # +8 then +6 crosses zero

    def test_tie_breaks_to_lowest_index(self):
        net = build_linear_net([2.0, 2.0, 2.0, 2.0, 1.0])
        res = greedy_search(net, BitString(np.ones(5)))  # phi = 9
        assert res.distance == 3
        assert res.path == (0, 1, 2)

    def test_evaluation_accounting(self):
        net = build_linear_net([4.0, 3.0, 2.0, 1.0])
        res = greedy_search(net, BitString(np.ones(4)))
        assert res.distance == 2
        assert res.evaluations == 4 + 3

    def test_no_boundary_returns_none(self):
        net = build_constant_net(6, 3.0)
        res = greedy_search(net, BitString(np.ones(6)))
        assert res.distance is None
        assert len(res.path) == 6  # exhausted every bit once

    def test_input_length_checked(self):
        net = build_linear_net([1.0, 2.0])
        x = BitString(np.ones(3))
        with pytest.raises(ConfigError):
            greedy_search(net, x)
        with pytest.raises(ConfigError):
            exact_search(net, x)
        with pytest.raises(ConfigError):
            random_flip_walk(net, x, 0)


# a linear net's weights with two exact ties: bits 1 and 3, bits 7 and 15
TIED = [3.0, 9.0, 1.0, 9.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
# a linear net's weights whose five largest, bits 1, 3, 5, 7 and 9, are equal
FIVE_EQUAL = [3.0, 9.0, 1.0, 9.0, 2.0, 9.0, 5.0, 9.0, 7.0, 9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def naive_greedy(net, x):
    """Greedy by full forward passes: at each step evaluate every remaining
    single flip of the current string, take the argmin of s0 * phi (ties to
    the lowest index) and stop at the first sign change."""
    n = net.config.n
    start_phi = forward(net, x)
    s0 = 1.0 if start_phi >= 0.0 else -1.0
    signs = x.signs.copy()
    remaining = list(range(n))
    path, evaluations = [], 0
    for step in range(1, n + 1):
        block = np.repeat(signs[None, :], len(remaining), axis=0)
        block[np.arange(len(remaining)), remaining] *= -1.0
        phis = forward_batch(net, block)
        evaluations += len(remaining)
        j = int(np.argmin(s0 * phis))
        i = remaining.pop(j)
        path.append(i)
        signs[i] = -signs[i]
        if (phis[j] >= 0.0) != (s0 > 0.0):
            return start_phi, tuple(path), step, evaluations
    return start_phi, tuple(path), None, evaluations


@pytest.fixture
def tail_rows(monkeypatch):
    """Row counts of greedy's float64 tail passes, in call order; a pass over
    fewer rows than the step's batch is a screened step's contenders. The
    screen runs at any size, so that small nets exercise it."""
    monkeypatch.setattr(nets, "_SCREEN_MIN_WORK", 0)
    rows = []
    real = search.forward_from_first_layer

    def spy(net, z1):
        rows.append(len(z1))
        return real(net, z1)

    monkeypatch.setattr(search, "forward_from_first_layer", spy)
    return rows


def assert_greedy_matches_naive(net, x, tail_rows):
    """greedy equals naive_greedy; returns its step count and how many of
    them the float32 screen decided (float64 passes over fewer rows than any
    step's batch)."""
    del tail_rows[:]
    res = greedy_search(net, x)
    assert (res.start_phi, res.path, res.distance, res.evaluations) == naive_greedy(net, x)
    smallest_batch = net.config.n - len(res.path) + 1
    return len(res.path), sum(m < smallest_batch for m in tail_rows)


class TestGreedyMatchesNaiveReference:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize(
        "n, widths", [(9, (13, 5, 7)), (40, (24, 48)), (12, (16, 10, 20)), (48, (40, 24, 56))]
    )
    def test_sampled_nets(self, n, widths, activation, tail_rows):
        steps = screened = 0
        for trial in range(8):
            config = NetworkConfig(
                n=n, hidden_widths=widths, sigma_b2=0.3, activation=activation, seed=11
            )
            net = sample_network(config, trial)
            x = BitString.random(n, np.random.default_rng(trial))
            trial_steps, trial_screened = assert_greedy_matches_naive(net, x, tail_rows)
            steps += trial_steps
            screened += trial_screened
        assert steps > 8  # some trials take several steps
        # only the built-in ReLU enters the float32 screen
        assert (screened > 0) == (activation == "relu")

    def test_screen_only_where_it_pays(self, monkeypatch):
        """At the default size threshold a net of two hidden layers of n
        enters the float32 screen from n = 256 on, not at n = 128."""
        rows = []
        real = search.forward_from_first_layer
        monkeypatch.setattr(
            search, "forward_from_first_layer", lambda net, z1: rows.append(len(z1)) or real(net, z1)
        )
        for n in (128, 256):
            del rows[:]
            net = sample_network(NetworkConfig(n=n, hidden_widths=(n, n), seed=2), 0)
            res = greedy_search(net, BitString.random(n, np.random.default_rng(n)))
            assert (min(rows) < n - len(res.path) + 1) == (n == 256)

    def test_exact_ties_take_the_lowest_index(self, tail_rows):
        """Columns 1 and 3 (and 7 and 15) of the first layer are equal, so
        their flips tie exactly, in float32 and float64 alike: the screen
        sees the tie among its contenders and leaves the step to the float64
        pass over the whole batch."""
        net = build_linear_net(TIED)
        x = BitString(np.ones(16))  # phi = 75
        assert_greedy_matches_naive(net, x, tail_rows)
        assert greedy_search(net, x).path == (1, 3, 9, 8, 7)
        assert tail_rows[:2] == [2, 16]  # the tied contenders, then the batch

    @pytest.mark.parametrize(
        "gaps, path, passes",
        [
            ((0.0,) * 5, (1, 3, 5, 7, 9), [5, 16, 4, 16, 3, 16, 2, 16, 1]),
            ((4e-9, 1e-9, 3e-9, 0.0, 2e-9), (1, 5, 9, 3, 7), [5, 4, 3, 2, 1]),
        ],
        ids=["equal", "apart-in-float64"],
    )
    def test_many_contenders(self, gaps, path, passes, tail_rows):
        """Five of sixteen first-layer columns round to one float32 value,
        so every step's contenders are all of them not yet flipped: 5 of 16
        rows at the first step. Exactly equal columns tie, so each step goes
        on from its contenders to the float64 pass over the batch; columns a
        few 1e-9 apart are told apart in float64 and decided among the
        contenders, however large a share of the batch they are."""
        weights = list(FIVE_EQUAL)
        for bit, gap in zip((1, 3, 5, 7, 9), gaps):
            weights[bit] += gap
        net = build_linear_net(weights)
        x = BitString(np.ones(16))
        assert_greedy_matches_naive(net, x, tail_rows)
        assert greedy_search(net, x).path == path
        assert tail_rows[: len(passes)] == passes

    @pytest.mark.parametrize("layer", [0, -1])
    def test_float32_overflow_falls_back(self, layer, tail_rows):
        """First-layer weights of 1e39 overflow the float32 cast of z1 at
        every step; output weights of 1e39 leave the net without a float32
        tail. Either way every step is the float64 pass."""
        config = NetworkConfig(n=12, hidden_widths=(12, 12), sigma_b2=0.3)
        rng = np.random.default_rng(9)
        for trial in range(4):
            net = sample_network(config, trial)
            weights = list(net.weights)
            weights[layer] = weights[layer] * 1e39
            net = DeepNet(config, weights, net.biases)
            assert assert_greedy_matches_naive(net, BitString.random(12, rng), tail_rows)[1] == 0

    def test_decision_does_not_need_bit_equal_row_subsets(self, monkeypatch, tail_rows):
        """A BLAS may round a row of a small batch a few ulps away from the
        same row in the whole batch. Nudging every pass over at most 8 rows
        (contenders here, never a whole batch) by up to 3 ulps, up and down,
        changes no path, not even at an exact tie: each screened decision is
        certified against the whole batch's float64 values."""
        real = search.forward_from_first_layer

        def nudged(net, z1):
            phis = real(net, z1)
            if len(z1) <= 8:
                phis = phis + np.spacing(phis) * np.resize([3.0, -3.0, 1.0, -2.0], len(z1))
            return phis

        monkeypatch.setattr(search, "forward_from_first_layer", nudged)
        assert greedy_search(build_linear_net(TIED), BitString(np.ones(16))).path == (1, 3, 9, 8, 7)
        screened = 0
        config = NetworkConfig(n=40, hidden_widths=(24, 48), sigma_b2=0.3, seed=11)
        for trial in range(8):
            net = sample_network(config, trial)
            x = BitString.random(40, np.random.default_rng(trial))
            screened += assert_greedy_matches_naive(net, x, tail_rows)[1]
        assert screened > 8


class TestOneFlipUpdate:
    """Every search evaluates a flip set as z1 plus its flip rows, through
    forward_from_first_layer, so the searches agree bit for bit where they
    evaluate the same flips."""

    @pytest.fixture
    def tail_calls(self, monkeypatch):
        """(rows, phis) of every forward_from_first_layer call, in order."""
        calls = []
        real = search.forward_from_first_layer

        def spy(net, z1):
            phis = real(net, z1)
            calls.append((z1.copy(), phis))
            return phis

        monkeypatch.setattr(search, "forward_from_first_layer", spy)
        return calls

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_exact_shell_one_is_greedys_first_pass(self, activation, tail_calls):
        """Below the screen's size gate, greedy's first call is its float64
        pass over every flip; exact search's shell 1 hands the tail the same
        rows and gets the same phis, and all three searches start alike."""
        for n, widths in [(9, (13, 5, 7)), (40, (24, 48)), (12, (16, 10, 20))]:
            config = NetworkConfig(
                n=n, hidden_widths=widths, sigma_b2=0.3, activation=activation, seed=5
            )
            for trial in range(4):
                net = sample_network(config, trial)
                x = BitString.random(n, np.random.default_rng(trial))
                del tail_calls[:]
                g = greedy_search(net, x)
                greedy_rows, greedy_phis = tail_calls[0]
                del tail_calls[:]
                e = exact_search(net, x, max_h=1)
                ((exact_rows, exact_phis),) = tail_calls
                assert greedy_rows.tobytes() == exact_rows.tobytes()
                assert greedy_phis.tobytes() == exact_phis.tobytes()
                w = random_flip_walk(net, x, trial)
                assert g.start_phi == e.start_phi == w.start_phi

    def test_greedy_takes_one_step_exactly_when_exact_finds_shell_one(self):
        """On ReLU nets, n = 256 among them, where greedy's first step goes
        through the float32 screen: from a random string and from the last
        string before greedy's crossing."""
        seen = set()
        for n, trials in ((10, 12), (24, 8), (256, 3)):
            config = NetworkConfig(n=n, hidden_widths=(n, n), sigma_b2=0.3, seed=3)
            for trial in range(trials):
                net = sample_network(config, trial)
                x = BitString.random(n, np.random.default_rng(trial))
                path = greedy_search(net, x).path
                for start in (x, x.flip_many(path[:-1])):
                    one_step = greedy_search(net, start).distance == 1
                    assert one_step == (exact_search(net, start, max_h=1).distance == 1)
                    seen.add((n, one_step))
        assert {(256, True), (10, False), (256, False)} <= seen


class TestSharedNet:
    def test_threads_share_one_net(self):
        """A DeepNet holds no scratch arrays, so two threads searching one
        net get the serial results bit for bit; at n = 256 greedy's steps
        go through the float32 screen, whose tail the threads also build."""
        n = 256
        config = NetworkConfig(n=n, hidden_widths=(n, n), sigma_b2=0.3, seed=4)
        xs = [BitString.random(n, np.random.default_rng(k)) for k in range(12)]

        def searches(net, k):
            return greedy_search(net, xs[k]), random_flip_walk(net, xs[k], k)

        serial_net, shared = sample_network(config, 0), sample_network(config, 0)
        serial = [searches(serial_net, k) for k in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                jobs = pool.map(lambda k: searches(shared, k), range(len(xs)), timeout=120)
                threaded = list(jobs)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


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
        res = exact_search(net, BitString(np.ones(4)))  # min distance 2
        assert res.distance == 2
        assert res.path == (0, 1)  # first h=2 combination already crosses

    def test_agrees_with_greedy_linear_hand_case(self):
        net = build_linear_net([5.0, 3.0, 9.0, 1.0, 7.0])
        x = BitString(np.ones(5))
        assert exact_search(net, x).distance == greedy_search(net, x).distance == 2

    def test_no_boundary_enumerates_everything(self):
        n = 8
        net = build_constant_net(n, -1.5)
        res = exact_search(net, BitString(np.ones(n)))
        assert res.distance is None
        assert res.path is None
        assert res.evaluations == 2**n - 1

    def test_max_h_limits_shells(self):
        net = build_linear_net([4.0, 3.0, 2.0, 1.0])
        res = exact_search(net, BitString(np.ones(4)), max_h=1)
        assert res.distance is None
        assert res.evaluations == 4

    def test_budget_checked_before_each_shell(self):
        n = 30
        net = build_constant_net(n, 2.0)
        x = BitString(np.ones(n))
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
            start = forward(net, x) >= 0.0  # the tie rule sign(0) = +1
            cur = x
            naive = None
            for step, bit in enumerate(perm, start=1):
                cur = cur.flip_many((int(bit),))
                if (forward(net, cur) >= 0.0) != start:
                    naive = step
                    break
            assert res.distance == (naive if naive is not None else n)

    def test_no_boundary_caps_at_n(self):
        n = 12
        net = build_constant_net(n, 1.0, seed=3)
        res = random_flip_walk(net, BitString(np.ones(n)), 0)
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


class TestTieRule:
    def test_zero_counts_as_positive_in_every_search(self):
        """The classifier is sign(phi) with sign(0) = +1 in all three searches:
        for phi(x) = x_0 - x_1, a start or a flip set at phi = 0 is positive."""
        net = build_linear_net([1.0, -1.0])
        zero = BitString([1, 1])  # phi = 0; only flipping bit 0 (phi = -2) crosses
        res = greedy_search(net, zero)
        assert res.start_phi == 0.0 and res.path == (0,)
        assert exact_search(net, zero).path == (0,)
        first_bits = set()
        for trial in range(8):
            perm = spawn_rng(net.config.seed, STREAM_WALK, trial).permutation(2)
            first_bits.add(int(perm[0]))
            # bit 1 first gives phi = 2, then phi = 0 again: no crossing, capped at 2
            assert random_flip_walk(net, zero, trial).distance == (1 if perm[0] == 0 else 2)
        assert first_bits == {0, 1}
        below = BitString([-1, 1])  # phi = -2; either single flip reaches phi = 0
        assert greedy_search(net, below).path == (0,)
        assert exact_search(net, below).path == (0,)
        assert all(random_flip_walk(net, below, t).distance == 1 for t in range(4))


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
