"""Distance-to-boundary searches on the Hamming cube.

Three procedures, all pure functions of (net, x, seed):

* greedy_search: repeatedly flip the not-yet-flipped bit whose flip moves
  s0 * phi furthest down (s0 = sign of the starting output), until the sign
  changes. Step count equals Hamming distance from the start because bits
  are never re-flipped. Each step screens the flips in float32 and decides
  in float64 (below).
* exact_search: enumerate Hamming shells h = 1, 2, .. exhaustively
  (lexicographic combinations, early exit on the first hit), so the returned
  distance is guaranteed minimal. A budget caps the total enumeration.
* random_flip_walk: flip bits in a uniformly random order (a geodesic, no
  bit twice) until the classification changes, capped at n steps.

All three evaluate a flip set one way, the flip update: the starting
first-layer preactivations z1 (nets.forward_with_first_layer_cache) plus
the flip rows of its bits (_flip_rows), summed left to right, through the
layers above the first (nets.forward_from_first_layer). The sign-row
recursion (nets.forward_batch) is the independent reference for tests.

``evaluations`` counts candidate forward passes of unflipped bits; the
single evaluation of the starting point is excluded, which keeps "per step
at most n" and "total at most n * steps" exact for greedy.

Greedy's screen and decision: a step's choice is the argmin of s0 * phi
from the float64 pass over every flip of the table, the flipped bits' keys
set to +inf. nets.screen_tail gives each flip's phi through a float32 tail
with a rigorous bound eps against any float64 evaluation. Only the flips
whose interval [s0 phi - eps, s0 phi + eps] reaches below the smallest
upper end can be the float64 argmin, and only these contenders are
evaluated in float64. The decision stands when it is certified against the
float64 pass over every flip too: the contenders' float64 values may come
out a few ulps apart from that pass (a BLAS may round a row differently in
a smaller batch), by at most nets.FLOAT64_SPREAD * eps, so the chosen flip
must be below every other contender and away from zero by more than that.
Every other case takes the float64 pass, which is the decision itself: an
exact tie, too many contenders, a float32 overflow, or a net without a
float32 tail (any activation but the built-in RELU object, by identity).
So the path and distance are those of the float64 pass, bit for bit, on
any BLAS. Small nets skip the screen: below 2^23 tail multiply-adds a step,
its fixed costs outweigh its saving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional, Tuple

import numpy as np

from .bitstrings import BitString
from .errors import BudgetExceededError, ConfigError
from .nets import (
    FLOAT64_SPREAD,
    DeepNet,
    forward_from_first_layer,
    forward_with_first_layer_cache,
    screen_tail,
    sign_with_tie,
)
from .nets import forward_batch  # noqa: F401  unused, kept: perfbench traces search.forward_batch
from .rng import STREAM_WALK, spawn_rng

DEFAULT_BUDGET = 20_000_000
_ENUM_CHUNK = 2048
_WALK_BLOCK = 64
_MAX_CONTENDERS = 0.25  # of the batch; above it the screen saves little
# Tail multiply-adds of a step's n rows below which the screen's fixed costs
# (its float32 copy of the net, a dozen numpy calls a step) outweigh what it
# saves: measured break-even at about n = 192 for two hidden layers of n.
_SCREEN_MIN_WORK = 2**23


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search.

    ``distance`` is the Hamming distance to the first differently classified
    string found, or None when no sign change occurred within the cap (the
    walk never returns None: its cap n is part of its definition).
    """

    start_phi: float
    distance: Optional[int]
    path: Optional[Tuple[int, ...]]
    evaluations: int


def greedy_search(net: DeepNet, x: BitString) -> SearchResult:
    """Greedy descent of s0 * phi over single-bit flips, for at most n steps.

    Ties break toward the lowest bit index; already-flipped bits are never
    candidates again. Each step's choice is the argmin of the float64 pass
    over every flip, found through the float32 screen when it can be
    certified (module docstring).
    """
    n = net.config.n
    phi0, z1 = forward_with_first_layer_cache(net, x)
    started_positive = sign_with_tie(phi0) == 1
    s0 = 1.0 if started_positive else -1.0
    delta = _flip_rows(net, x, slice(None))
    screen = n * sum(w.size for w in net.weights[1:]) >= _SCREEN_MIN_WORK
    remaining = np.ones(n, dtype=bool)
    path = []
    evaluations = 0
    distance = None
    for step in range(1, n + 1):
        evaluations += n - step + 1  # the flips of the bits not yet flipped
        choice = screen and _screened_choice(net, z1, delta, remaining, s0)
        i, phi = choice or _float64_choice(net, z1, delta, remaining, s0)
        path.append(i)
        z1 = z1 + delta[i]  # the same sum as candidate i's row
        remaining[i] = False
        # same flip predicate as exact_search and the walk (sign(0) = +1)
        if (phi >= 0.0) != started_positive:
            distance = step
            break
    return SearchResult(
        start_phi=phi0,
        distance=distance,
        path=tuple(path),
        evaluations=evaluations,
    )


def _float64_choice(
    net: DeepNet, z1: np.ndarray, delta: np.ndarray, remaining: np.ndarray, s0: float
) -> Tuple[int, float]:
    """(bit, phi) of the argmin of s0 * phi over the flips of the remaining
    bits (the lowest bit of a tie), from the float64 pass over every flip."""
    phis = forward_from_first_layer(net, delta + z1)
    key = s0 * phis
    key[~remaining] = np.inf
    i = int(np.argmin(key))
    return i, phis[i]


def _screened_choice(
    net: DeepNet, z1: np.ndarray, delta: np.ndarray, remaining: np.ndarray, s0: float
) -> Optional[Tuple[int, float]]:
    """_float64_choice's answer through the float32 screen, or None when the
    screen cannot certify it (module docstring)."""
    screened = screen_tail(net, z1, delta)
    if screened is None:
        return None
    phi32, eps = screened
    key32 = s0 * phi32
    key32[~remaining] = np.inf
    contenders = np.flatnonzero(key32 - eps <= np.min(key32 + eps))
    if contenders.size > _MAX_CONTENDERS * np.count_nonzero(remaining):
        return None
    rows = delta[contenders]
    rows += z1  # the same sums as the float64 pass's rows
    phis = forward_from_first_layer(net, rows)
    key = s0 * phis
    spread = FLOAT64_SPREAD * eps[contenders]
    k = int(np.argmin(key))
    low = key - spread
    low[k] = np.inf
    phi, near = phis[k], spread[k]
    if np.min(low) > key[k] + near and (phi - near >= 0.0 or phi + near < 0.0):
        return int(contenders[k]), phi
    return None


def exact_search(
    net: DeepNet,
    x: BitString,
    max_h: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Exhaustive shell-by-shell search; the result is guaranteed minimal.

    Shells are enumerated in lexicographic combination order with early exit
    on the first hit. Before a shell is opened, the planned cumulative
    enumeration size is checked against the budget; exceeding it raises
    BudgetExceededError carrying the largest fully searched h.
    """
    n = net.config.n
    if max_h is None:
        max_h = n
    if not 1 <= max_h <= n:
        raise ConfigError(f"max_h must be in [1, {n}], got {max_h}")
    phi0, z1 = forward_with_first_layer_cache(net, x)
    started_positive = sign_with_tie(phi0) == 1
    delta = _flip_rows(net, x, slice(None))
    planned = 0
    evaluations = 0
    for h in range(1, max_h + 1):
        planned += math.comb(n, h)
        if planned > budget:
            raise BudgetExceededError(
                f"enumerating shells 1..{h} needs {planned} evaluations "
                f"(budget {budget}); largest fully searched h is {h - 1}",
                largest_searched_h=h - 1,
            )
        combos = combinations(range(n), h)
        while True:
            chunk = list(islice(combos, _ENUM_CHUNK))
            if not chunk:
                break
            idx = np.asarray(chunk, dtype=np.intp)
            block = z1 + delta[idx[:, 0]]
            for j in range(1, h):  # left to right, as the walk's running sum
                block += delta[idx[:, j]]
            phis = forward_from_first_layer(net, block)
            evaluations += len(chunk)
            hits = np.flatnonzero((phis >= 0.0) != started_positive)
            if hits.size:
                k = int(hits[0])
                return SearchResult(
                    start_phi=phi0,
                    distance=h,
                    path=tuple(chunk[k]),
                    evaluations=evaluations,
                )
    return SearchResult(
        start_phi=phi0,
        distance=None,
        path=None,
        evaluations=evaluations,
    )


def random_flip_walk(net: DeepNet, x: BitString, trial_index: int) -> SearchResult:
    """Geodesic walk in a uniformly random flip order, capped at n.

    The permutation derives from (net.config.seed, trial_index), so a fixed
    net and trial reproduce the walk exactly. Each 64-step block is one
    running sum of flip rows from the current z1.
    """
    n = net.config.n
    rng = spawn_rng(net.config.seed, STREAM_WALK, trial_index)
    perm = rng.permutation(n)
    phi0, z1 = forward_with_first_layer_cache(net, x)
    started_positive = sign_with_tie(phi0) == 1
    evaluations = 0
    steps = n  # the cap, when no flip crosses the boundary
    pos = 0
    while pos < n:
        b = min(_WALK_BLOCK, n - pos)
        block = _flip_rows(net, x, perm[pos : pos + b])
        block[0] += z1
        np.cumsum(block, axis=0, out=block)  # row j: z1 after flips pos..pos+j
        phis = forward_from_first_layer(net, block)
        evaluations += b
        hits = np.flatnonzero((phis >= 0.0) != started_positive)
        if hits.size:
            steps = pos + int(hits[0]) + 1
            break
        z1 = block[-1]
        pos += b
    return SearchResult(
        start_phi=phi0,
        distance=steps,
        path=tuple(int(v) for v in perm[:steps]),
        evaluations=evaluations,
    )


def _flip_rows(net: DeepNet, x: BitString, bits) -> np.ndarray:
    """Row k is the change of z1 = W^(1) x + b^(1) when bit bits[k] flips,
    -2 x_i W^(1)[:, i], exactly (x_i = +-1, factor 2), as a fresh C-ordered
    array. No search re-flips a bit, so x's signs stay valid."""
    return np.multiply(net.weights[0].T[bits], -2.0 * x.signs[bits, None], order="C")
