"""Counter-based random stream derivation.

Every stochastic object in the package (network weights, network outputs
sampled at fixed inputs, input strings, walk permutations, GP draws) gets its
own generator derived from a root seed, a stream tag, and the integers that
identify the task (input size, trial index).
Derivation uses the SplitMix64 finisher, so child seeds are decorrelated and
trials can run in any order or process without shared state:

    child = mix(... mix(mix(seed) ^ mix(tag)) ^ mix(trial) ...)

The same (seed, path) always yields the same generator, which is what makes
experiment output byte-reproducible under any parallelism degree.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags, one per consumer. Values are arbitrary distinct constants.
STREAM_NETWORK = 0x6E6574
STREAM_OUTPUTS = 0x6F7574
STREAM_INPUT = 0x696E70
STREAM_WALK = 0x776C6B
STREAM_GP = 0x6770


def splitmix64(x: int) -> int:
    """One SplitMix64 finalization step (Steele, Lea, Flood 2014)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Mix a root seed with an integer path into a 64-bit child seed."""
    state = splitmix64(seed & _MASK64)
    for part in path:
        state = splitmix64(state ^ splitmix64(part & _MASK64))
    return state


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Return a PCG64 generator for the derived child seed."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *path)))
