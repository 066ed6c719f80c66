"""Scalar activation functions with the metadata the kernel quadrature needs.

An activation is a vectorized scalar map plus a declared name (used for
provenance in output files) and its derivative. The kernel quadrature needs
no further metadata: its cross moment takes the Hermite series where that
converges (smooth activations) and otherwise a polar rule that splits the
angular integral at the rays where either argument vanishes, so a kink at
the origin (ReLU and its relatives) keeps spectral accuracy.

The derivative gives the kernel slope F'(1) by its exact layer recursion,
which needs E[tau'(sqrt(Q) z)^2]. Where the function has a kink or a jump,
any value of the derivative at that point will do.

Custom activations are registered by name so that configs stay serializable,
and a name in an output file's provenance means one function: the built-in
names relu and tanh cannot be taken. The kernel does not look at names; it
gives the built-in RELU object its closed forms by identity.
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


def register_activation(act: Activation) -> Activation:
    """Register a custom activation under its declared name. The built-in
    names cannot be taken, so that a provenance name means one function."""
    if not act.name or not act.name.isidentifier():
        raise ConfigError(f"activation name {act.name!r} is not a valid identifier")
    if act.name in (RELU.name, TANH.name):
        raise ConfigError(f"activation {act.name!r} is built in and cannot be replaced")
    _REGISTRY[act.name] = act
    return act


def get_activation(name: str) -> Activation:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown activation {name!r} (known: {known})") from None
