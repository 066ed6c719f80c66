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
the flip rows of its bits (nets.flip_rows), summed left to right, through
the layers above the first (nets.forward_from_first_layer). The sign-row
recursion (nets.forward_batch) is the independent reference for tests.

Exact search and the walk stream flip-set batches through one loop,
_first_crossing; greedy applies the same crossing rule, _crosses, per step.

``evaluations`` counts candidate forward passes of unflipped bits; the
single evaluation of the starting point is excluded, which keeps "per step
at most n" and "total at most n * steps" exact for greedy.

Greedy's screen and decision: a step's choice is the argmin of s0 * phi
from the float64 pass over every flip, the flipped bits' keys set to +inf.
A nets.FlipScreen, made for the search, gives each flip's phi through a
float32 tail with a rigorous bound eps against any float64 evaluation. Its
first step keeps its product over the first-layer units that every flip
leaves on; later steps add that product, moved by one gemv of the change
of z1, and multiply only the other live units and those that have left
that set. Only the flips whose interval [s0 phi - eps, s0 phi + eps]
reaches below the smallest upper end can be the float64 argmin, and only
these contenders are evaluated in float64. The decision stands when it is
certified against the float64 pass over every flip too: the contenders'
float64 values may come out a few ulps apart from that pass (a BLAS may
round a row differently in a smaller batch), by at most
nets.FLOAT64_SPREAD * eps, so the chosen flip must be below every other
contender and away from zero by more than that.
Every other case takes the float64 pass, which is the decision itself: an
exact tie, a float32 overflow, or a net without a screen (nets says which
nets have one). So the path and distance are those of the float64 pass, bit
for bit, on any BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Optional, Tuple

import numpy as np

from .bitstrings import BitString
from .errors import BudgetExceededError, ConfigError
from .nets import (
    FLOAT64_SPREAD,
    DeepNet,
    FlipScreen,
    forward_from_first_layer,
    flip_rows,
    forward_with_first_layer_cache,
)
# unused: kept only because perfbench/test_perfbench.py's CALLER_SIDE lists
# search.forward_batch; the tracer itself runs without it
from .nets import forward_batch  # noqa: F401
from .rng import STREAM_WALK, spawn_rng

DEFAULT_BUDGET = 20_000_000
_ENUM_CHUNK = 2048
_WALK_BLOCK = 64


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
    s0 = 1.0 if phi0 >= 0.0 else -1.0
    remaining = np.ones(n, dtype=bool)
    screen = FlipScreen(net, x)
    path = []
    evaluations = 0
    distance = None
    for step in range(1, n + 1):
        evaluations += n - step + 1  # the flips of the bits not yet flipped
        choice = _screened_choice(net, x, z1, remaining, s0, screen)
        if not choice:  # the float64 pass over every flip
            rows = flip_rows(net, x, slice(None))
            rows += z1  # the same sums as _screened_choice's rows
            phis = forward_from_first_layer(net, rows)
            key = s0 * phis
            key[~remaining] = np.inf
            k = int(np.argmin(key))
            choice = k, phis[k]
        i, phi = choice
        path.append(i)
        z1 = z1 + flip_rows(net, x, i)  # the same sum as candidate i's row
        remaining[i] = False
        if _crosses(phi, phi0):
            distance = step
            break
    return SearchResult(phi0, distance, tuple(path), evaluations)


def _screened_choice(
    net: DeepNet,
    x: BitString,
    z1: np.ndarray,
    remaining: np.ndarray,
    s0: float,
    screen: FlipScreen,
) -> Optional[Tuple[int, float]]:
    """(bit, phi) of the float64 pass's argmin through the search's float32
    screen, or None when the screen cannot certify it (module docstring)."""
    screened = screen(z1)
    if screened is None:
        return None
    phi32, eps = screened
    key32 = s0 * phi32
    key32[~remaining] = np.inf
    contenders = np.flatnonzero(key32 - eps <= np.min(key32 + eps))
    rows = flip_rows(net, x, contenders)
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


def _crosses(phi, phi0: float):
    """Whether phi (a float or an array) is classified apart from phi0: the
    classifier is sign(phi), with the tie rule sign(0) = +1."""
    return (phi >= 0.0) != (phi0 >= 0.0)


def _first_crossing(net: DeepNet, phi0: float, batches: Iterable) -> Tuple[Optional[tuple], int]:
    """Evaluate ``batches`` of (rows, tag), rows being the first-layer
    preactivations of flip sets, in order. Returns ((tag, k), evaluations) for
    the first row k classified apart from phi0, else (None, evaluations)."""
    evaluations = 0
    for rows, tag in batches:
        phis = forward_from_first_layer(net, rows)
        evaluations += len(rows)
        hits = np.flatnonzero(_crosses(phis, phi0))
        if hits.size:
            return (tag, int(hits[0])), evaluations
    return None, evaluations


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
    # one table of every flip row: gathering each chunk's rows from the weights
    # instead measured 23-27 % slower on shells 1-4 at n = 12-14
    delta = flip_rows(net, x, slice(None))

    def shells():
        planned = 0
        for h in range(1, max_h + 1):
            planned += math.comb(n, h)
            if planned > budget:
                raise BudgetExceededError(
                    f"enumerating shells 1..{h} needs {planned} evaluations "
                    f"(budget {budget}); largest fully searched h is {h - 1}",
                    largest_searched_h=h - 1,
                )
            combos = combinations(range(n), h)
            while chunk := list(islice(combos, _ENUM_CHUNK)):
                idx = np.asarray(chunk, dtype=np.intp)
                rows = z1 + delta[idx[:, 0]]
                for j in range(1, h):  # left to right, as the walk's running sum
                    rows += delta[idx[:, j]]
                yield rows, chunk

    hit, evaluations = _first_crossing(net, phi0, shells())
    if hit is None:
        return SearchResult(phi0, None, None, evaluations)
    chunk, k = hit
    return SearchResult(phi0, len(chunk[k]), chunk[k], evaluations)


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

    def blocks(z1):
        for pos in range(0, n, _WALK_BLOCK):
            block = flip_rows(net, x, perm[pos : pos + _WALK_BLOCK])
            block[0] += z1
            np.cumsum(block, axis=0, out=block)  # row j: z1 after flips pos..pos+j
            yield block, pos
            z1 = block[-1]

    hit, evaluations = _first_crossing(net, phi0, blocks(z1))
    steps = n if hit is None else hit[0] + hit[1] + 1  # block start + row + 1, or the cap n
    return SearchResult(phi0, steps, tuple(int(v) for v in perm[:steps]), evaluations)
