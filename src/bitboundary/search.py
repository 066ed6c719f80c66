"""Distance-to-boundary searches on the Hamming cube.

Three procedures, all pure functions of (net, x, seed):

* greedy_search: repeatedly flip the not-yet-flipped bit whose flip moves
  s0 * phi furthest down (s0 = sign of the starting output), until the sign
  changes. Step count equals Hamming distance from the start because bits
  are never re-flipped. Candidate evaluations reuse the first-layer
  preactivations, so each step costs at most n tail-layer passes.
* exact_search: enumerate Hamming shells h = 1, 2, .. exhaustively
  (lexicographic combinations, early exit on the first hit), so the returned
  distance is guaranteed minimal. A budget caps the total enumeration.
* random_flip_walk: flip bits in a uniformly random order (a geodesic, no
  bit twice) until the classification changes, capped at n steps.

``evaluations`` counts candidate forward passes; the single evaluation of
the starting point is excluded, which keeps "per step at most n" and
"total at most n * steps" exact for greedy.
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
    DeepNet,
    forward,
    forward_batch,
    forward_from_first_layer,
    forward_with_first_layer_cache,
    sign_with_tie,
)
from .rng import STREAM_WALK, spawn_rng

DEFAULT_BUDGET = 20_000_000
_ENUM_CHUNK = 2048
_WALK_BLOCK = 64

METHOD_GREEDY = "greedy"
METHOD_EXACT = "exact"
METHOD_WALK = "walk"


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search.

    ``distance`` is the Hamming distance to the first differently classified
    string found, or None when no sign change occurred within the cap (the
    walk never returns None: its cap n is part of its definition).
    """

    method: str
    start_phi: float
    distance: Optional[int]
    path: Optional[Tuple[int, ...]]
    evaluations: int


def greedy_search(
    net: DeepNet, x: BitString, max_steps: Optional[int] = None
) -> SearchResult:
    """Greedy descent of s0 * phi over single-bit flips.

    Ties break toward the lowest bit index; already-flipped bits are never
    candidates again.
    """
    n = net.config.n
    if x.n != n:
        raise ConfigError(f"input length {x.n} != network input_dim {n}")
    if max_steps is None:
        max_steps = n
    if not 1 <= max_steps <= n:
        raise ConfigError(f"max_steps must be in [1, {n}], got {max_steps}")
    phi0, z1 = forward_with_first_layer_cache(net, x)
    started_positive = sign_with_tie(phi0) == 1
    s0 = 1.0 if started_positive else -1.0
    w1c = net.w1_columns
    signs = x.signs.copy()
    remaining = np.ones(n, dtype=bool)
    path = []
    evaluations = 0
    distance = None
    for step in range(1, max_steps + 1):
        cand = np.flatnonzero(remaining)
        z1_cand = z1[None, :] - 2.0 * (signs[cand, None] * w1c[cand])
        phis = forward_from_first_layer(net, z1_cand)
        evaluations += cand.size
        j = int(np.argmin(s0 * phis))
        i = int(cand[j])
        path.append(i)
        z1 = z1_cand[j]
        signs[i] = -signs[i]
        remaining[i] = False
        # same flip predicate as exact_search and the walk (sign(0) = +1)
        if (phis[j] >= 0.0) != started_positive:
            distance = step
            break
    return SearchResult(
        method=METHOD_GREEDY,
        start_phi=phi0,
        distance=distance,
        path=tuple(path),
        evaluations=evaluations,
    )


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
    if x.n != n:
        raise ConfigError(f"input length {x.n} != network input_dim {n}")
    if max_h is None:
        max_h = n
    if not 1 <= max_h <= n:
        raise ConfigError(f"max_h must be in [1, {n}], got {max_h}")
    phi0 = forward(net, x)
    started_positive = sign_with_tie(phi0) == 1
    signs0 = x.signs
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
            block = np.repeat(signs0[None, :], len(chunk), axis=0)
            block[np.arange(len(chunk))[:, None], idx] *= -1.0
            phis = forward_batch(net, block)
            evaluations += len(chunk)
            hits = np.flatnonzero((phis >= 0.0) != started_positive)
            if hits.size:
                k = int(hits[0])
                return SearchResult(
                    method=METHOD_EXACT,
                    start_phi=phi0,
                    distance=h,
                    path=tuple(chunk[k]),
                    evaluations=evaluations,
                )
    return SearchResult(
        method=METHOD_EXACT,
        start_phi=phi0,
        distance=None,
        path=None,
        evaluations=evaluations,
    )


def random_flip_walk(net: DeepNet, x: BitString, trial_index: int) -> SearchResult:
    """Geodesic walk in a uniformly random flip order, capped at n.

    The permutation derives from (net.config.seed, trial_index), so a fixed
    net and trial reproduce the walk exactly.
    """
    n = net.config.n
    if x.n != n:
        raise ConfigError(f"input length {x.n} != network input_dim {n}")
    rng = spawn_rng(net.config.seed, STREAM_WALK, trial_index)
    perm = rng.permutation(n)
    phi0 = forward(net, x)
    started_positive = sign_with_tie(phi0) == 1
    signs = x.signs.copy()
    evaluations = 0
    steps = n  # the cap, when no flip crosses the boundary
    pos = 0
    while pos < n:
        b = min(_WALK_BLOCK, n - pos)
        block = np.repeat(signs[None, :], b, axis=0)
        for j in range(b):
            block[j:, perm[pos + j]] *= -1.0
        phis = forward_batch(net, block)
        evaluations += b
        hits = np.flatnonzero((phis >= 0.0) != started_positive)
        if hits.size:
            steps = pos + int(hits[0]) + 1
            break
        signs = block[-1]
        pos += b
    return SearchResult(
        method=METHOD_WALK,
        start_phi=phi0,
        distance=steps,
        path=tuple(int(v) for v in perm[:steps]),
        evaluations=evaluations,
    )
