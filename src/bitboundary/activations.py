"""The two activation functions the package runs, relu and tanh.

An activation is a vectorized scalar map plus a declared name (used for
provenance in output files) and its derivative. Configs name one of the
two built-in objects, so an output file's activation name is relu or tanh.
The kernel gives the RELU object its closed forms by identity, never by
name; any other Activation object, TANH among them, gets the kernel's
cross-checked quadratures, which a kinked one fails.

The derivative gives the kernel slope F'(1) by its exact layer recursion,
which needs E[tau'(sqrt(Q) z)^2]. Where the function has a kink or a jump,
any value of the derivative at that point will do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Activation:
    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    derivative: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _unit_step(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(float)


def _sech2(x: np.ndarray) -> np.ndarray:
    # 4 e^{-2|x|} / (1 + e^{-2|x|})^2: no overflow, full relative accuracy
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / (1.0 + e) ** 2


RELU = Activation("relu", _relu, _unit_step)
TANH = Activation("tanh", np.tanh, _sech2)

_REGISTRY: Dict[str, Activation] = {RELU.name: RELU, TANH.name: TANH}


def get_activation(name: str) -> Activation:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown activation {name!r} (known: {known})") from None
