"""Points of the hypercube {-1,+1}^n as read-only float64 sign vectors.

A BitString holds one immutable vector of +1.0 / -1.0 entries, which network
forward passes and the searches read as ``x.signs``. ``random`` draws 0/1
bits (1 means -1) by one ``rng.integers`` call, so a seeded stream always
gives the same string.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from .errors import ConfigError


class BitString:
    """Immutable element of {-1,+1}^n."""

    def __init__(self, signs):
        try:
            raw = np.asarray(signs)
        except (TypeError, ValueError):
            raw = None
        if raw is None or raw.dtype.kind not in "iuf":
            raise ConfigError("signs must be a sequence of numbers")
        if raw.ndim != 1 or raw.size < 1:
            raise ConfigError("signs must be a nonempty 1-D sequence")
        s = raw.astype(np.float64)
        if not np.all(np.abs(s) == 1.0):
            raise ConfigError("signs must all be +1 or -1")
        s.flags.writeable = False
        self._signs = s

    @property
    def signs(self) -> np.ndarray:
        """Float64 entries in {-1.0, +1.0}. Read-only."""
        return self._signs

    @property
    def n(self) -> int:
        return self._signs.size

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitString":
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        return cls(1.0 - 2.0 * bits)

    def flip_many(self, indices: Iterable[int]) -> "BitString":
        idx = np.asarray(tuple(indices), dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ConfigError(f"flip index out of range for n={self.n}")
        s = self._signs.copy()
        s[idx] *= -1.0
        s.flags.writeable = False
        flipped = object.__new__(BitString)  # s is valid: skip the checks
        flipped._signs = s
        return flipped

    def digest(self) -> str:
        """blake2b-128 hex of the length and the bit-packed -1 entries."""
        h = hashlib.blake2b(digest_size=16)
        h.update(self.n.to_bytes(8, "little"))
        h.update(np.packbits(self._signs < 0).tobytes())
        return h.hexdigest()
