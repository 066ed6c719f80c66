"""Random deep fully-connected networks evaluated on bit strings.

A network with hidden widths (n_1, .., n_L) maps x in {-1,+1}^n to the scalar

    phi(x) = W^(L+1) tau(... tau(W^(1) x + b^(1)) ...) + b^(L+1),

with independent Gaussian entries, weight variance sigma_w^2 / n_{l-1} and
bias variance sigma_b^2. The classifier is psi(x) = sign(phi(x)), with the
deterministic tie rule sign(0) = +1: phi(x) = 0 classifies x as positive
(the searches apply it, search._crosses). The batch paths take float64
(m, n) sign rows; forward and forward_with_first_layer_cache take one
BitString.

All math is float64 with a fixed summation order (row-major matrix products),
so a given (config, trial_index) reproduces phi bit for bit. Flipping bit i
changes W^(1) x by -2 x_i W^(1)[:, i] (flip_rows), so the searches' one flip
update is the start's z1 plus a row per flipped bit, summed left to right,
through the layers above the first; forward and forward_batch, from sign
rows, are the independent reference. A DeepNet is a read-only value: every
forward pass allocates its own products, so threads may share one net.

sample_outputs draws phi at a few fixed inputs without drawing any weight
matrix: given the layer below, the preactivations of layer l at m inputs
(the columns of H) are Gaussian with covariance sigma_w^2 / n_{l-1} H^T H +
sigma_b^2, independently per unit. This is the finite network's exact law,
at n_l * m normals per layer instead of n_l * n_{l-1}. The first layer's
factor of H^T H depends on the inputs alone (probe_factor), so it is
computed once per input set, not once per network.

screen_flips is a cheaper, certified look at every single flip of x for
ReLU nets (the built-in RELU object, chosen by identity): the float64 rows
z1 + flip row go through a float32 copy of the tail, and each row comes with
a rigorous bound eps >= |phi32 - phi64| against any float64 evaluation of
that row, whatever its summation order. With u = 2^-24 and gamma_K = K u / (1 - K u)
for a fan-in K, the terms are, carried to the output by the per-net vectors
r_k = |w_out| |W_L| .. |W_{k+1}| (so each is one gemv of nonnegative float32
numbers per layer):

* the cast of z1: u * r_1 . h1, exact through ReLU, which keeps signs;
* each matrix product, its weight cast and its bias add:
  (gamma_K + 3u) * r_k . h_k (the add's u |z| is at most u (|W| h + |b|));
* each cast bias and bias add: 2u * r_{k+1} . |b_k|;
* underflow (or flush to zero) of any float32 operation: at most 2^-126
  absolutely each, a per-net constant.

Each gemv is divided by (1 - gamma_K), so that its own rounding can only
raise the bound, and the sum is raised by 2^-20 relatively, which covers the
float64 arithmetic of the bound and the float64 evaluation's own error (at
most 2^-28 of the float32 bound). So two float64 evaluations of one row,
for instance inside batches of different sizes, differ by at most
FLOAT64_SPREAD * eps.

A net has a screen (its _Float32Tail) unless one of these holds: its
activation is not the built-in RELU object; a width is above 2^16 or there
are more than 32 hidden layers; a weight or bias is one that float32 cannot
hold to relative precision u (overflow or below 2^-126); or a screen of its
n flips costs fewer than 2^23 tail multiply-adds, where the screen's fixed
costs (its float32 copy of the net, a dozen numpy calls) outweigh what it
saves (measured break-even at about n = 192 for two hidden layers of n).

The screen multiplies only the first-layer units that some flip may turn
on. No flip changes z1[u] by more than hi[u] = 2 max_i |W^(1)[u, i]|,
computed once per net with the float32 tail (2 |w| is exact, and a bound of
the exact change bounds its rounding too), and a unit with
z1[u] + hi[u] <= 0 in float64 is dropped. Rounded addition and the float32
cast are monotone, so every row's h1[u] is then exactly 0 after ReLU. Each
float32 sum of the first product thus loses only zero terms: its value is
that of the full sum over k <= K live terms, and gamma_k <= gamma_K, so the
bound above, which charges the full fan-in K, holds unchanged. W^(1) is
unit-major, so the live units' flip rows are its live rows scaled by -2 x,
the values of flip_rows exactly (a product by +-2 is exact), and a screen
builds no n x n flip table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .activations import RELU, Activation, get_activation
from .bitstrings import BitString
from .errors import ConfigError, integer
from .kernel import validate_variances
from .rng import STREAM_NETWORK, STREAM_OUTPUTS, spawn_rng

_U32 = 2.0**-24  # float32 unit roundoff
_TINY32 = 2.0**-126  # smallest normal float32: the most any underflow loses
_SCREEN_MAX_WIDTH = 2**16
_SCREEN_MAX_DEPTH = 32
_SCREEN_SLACK = 1.0 + 2.0**-20
_SCREEN_MIN_WORK = 2**23  # tail multiply-adds of a screen of n flips
# two float64 evaluations of one row differ by at most this times its eps
FLOAT64_SPREAD = 2.0**-20


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture plus initialization hyperparameters."""

    n: int
    hidden_widths: Tuple[int, ...]
    sigma_w2: float = 2.0
    sigma_b2: float = 0.0
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "seed"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        widths = tuple(integer("hidden_widths", w) for w in self.hidden_widths)
        object.__setattr__(self, "hidden_widths", widths)
        sigmas = validate_variances(self.sigma_w2, self.sigma_b2)
        for name, value in zip(("sigma_w2", "sigma_b2"), sigmas):
            object.__setattr__(self, name, value)
        if self.n < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.n}")
        if len(self.hidden_widths) < 1 or any(w < 1 for w in self.hidden_widths):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden_widths}")
        if not 0 <= self.seed < 1 << 64:  # derive_seed reduces seeds mod 2**64
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        get_activation(self.activation)

    @property
    def dims(self) -> Tuple[int, ...]:
        """Layer sizes n_0 .. n_{L+1} (input, hidden, scalar output)."""
        return (self.n, *self.hidden_widths, 1)


class DeepNet:
    """Sampled (or hand-built) network with read-only weights and biases."""

    def __init__(
        self,
        config: NetworkConfig,
        weights: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
    ):
        dims = config.dims
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise ConfigError(
                f"expected {len(dims) - 1} weight/bias layers, "
                f"got {len(weights)}/{len(biases)}"
            )
        frozen_w, frozen_b = [], []
        for l, (w, b) in enumerate(zip(weights, biases)):
            w = np.ascontiguousarray(w, dtype=np.float64)
            b = np.ascontiguousarray(b, dtype=np.float64)
            if w.shape != (dims[l + 1], dims[l]) or b.shape != (dims[l + 1],):
                raise ConfigError(
                    f"layer {l + 1} shape mismatch: W {w.shape} b {b.shape}, "
                    f"expected W {(dims[l + 1], dims[l])} b {(dims[l + 1],)}"
                )
            w.flags.writeable = False
            b.flags.writeable = False
            frozen_w.append(w)
            frozen_b.append(b)
        self.config = config
        self.weights = tuple(frozen_w)
        self.biases = tuple(frozen_b)

    @cached_property
    def activation(self) -> Activation:
        return get_activation(self.config.activation)

    @cached_property
    def _screen(self) -> Optional["_Float32Tail"]:
        return _float32_tail(self)


class _Float32Tail(NamedTuple):
    """A net's layers above the first in float32, with screen_flips' bound:
    per layer the weights (the output layer's as a vector), the biases, the
    rounded-up carry vector r_k and the coefficient of r_k . h_k, plus the
    per-net constant of the bias and underflow terms and the per-unit flip
    bound hi of the unit selection."""

    weights: Tuple[np.ndarray, ...]
    biases: Tuple[np.ndarray, ...]
    carry: Tuple[np.ndarray, ...]
    coef: Tuple[np.float64, ...]
    const: float
    hi: np.ndarray


def _float32_tail(net: DeepNet) -> Optional[_Float32Tail]:
    """net's _Float32Tail, or None when it has no screen (module docstring)."""
    widths = net.config.hidden_widths
    if (
        net.activation is not RELU
        or max(widths) > _SCREEN_MAX_WIDTH
        or len(widths) > _SCREEN_MAX_DEPTH
        or net.config.n * sum(w.size for w in net.weights[1:]) < _SCREEN_MIN_WORK
    ):
        return None
    weights, biases, carry, coef = [], [], [], []
    r = np.ones(1)
    const = 0.0
    for w64, b64 in zip(net.weights[:0:-1], net.biases[:0:-1]):  # output layer first
        w_mag, b_mag = np.abs(w64), np.abs(b64)
        fan_in = w64.shape[1]
        gamma = fan_in * _U32 / (1.0 - fan_in * _U32)
        # the bias terms; then underflow (at most 2^-126 an operation) in the
        # product, the bias add and the gemv, doubled to cover its rounding
        const += 2.0 * _U32 * float(r @ b_mag)
        const += (4 * fan_in + 2) * _TINY32 * (float(r.sum()) + 1.0)
        r = r @ w_mag
        if not all(map(_fits_float32, (w_mag, b_mag))):
            return None
        with np.errstate(over="ignore"):  # an infinite carry is checked below
            w, b, r32 = w64.astype(np.float32), b64.astype(np.float32), r.astype(np.float32)
        if not np.isfinite(r32).all():
            return None
        weights.append(w)
        biases.append(b)
        carry.append(np.where(r32 < r, np.nextafter(r32, np.float32(np.inf)), r32))
        coef.append(np.float64((gamma + 3.0 * _U32) / (1.0 - gamma)))
    coef[-1] += np.float64(_U32 / (1.0 - gamma))  # the cast of z1, in the same gemv
    const += _TINY32 * float(r.sum())
    weights[0] = weights[0][0]
    w1 = net.weights[0]
    hi = 2.0 * np.maximum(w1.max(axis=1), -w1.min(axis=1))
    return _Float32Tail(
        tuple(weights[::-1]), tuple(biases[::-1]), tuple(carry[::-1]), tuple(coef[::-1]), const, hi
    )


def _fits_float32(mag: np.ndarray) -> bool:
    """Whether float32 holds every magnitude in mag to relative precision u:
    none is NaN, rounds to infinity, or lies in (0, 2^-126). The extremes
    settle it; only a minimum below 2^-126 (a zero, say) needs a scan."""
    lo, hi = mag.min(), mag.max()
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float32(hi)):
            return False
    return lo >= _TINY32 or not np.any((mag > 0.0) & (mag < _TINY32))


def sample_network(config: NetworkConfig, trial_index: int) -> DeepNet:
    """Draw a network from the stream derived from (config.seed, trial_index).

    Per layer, weights are drawn before biases; layers in order. The same
    (seed, trial_index) therefore reproduces the network bit for bit.
    """
    rng = spawn_rng(config.seed, STREAM_NETWORK, trial_index)
    dims = config.dims
    weights, biases = [], []
    for l in range(len(dims) - 1):
        fan_in = dims[l]
        w = rng.standard_normal((dims[l + 1], fan_in))
        w *= np.sqrt(config.sigma_w2 / fan_in)
        b = rng.standard_normal(dims[l + 1])
        b *= np.sqrt(config.sigma_b2)
        weights.append(w)
        biases.append(b)
    return DeepNet(config, weights, biases)


def _sign_batch(signs: np.ndarray, n: int) -> np.ndarray:
    """signs as a float64 (m, n) batch, or ConfigError."""
    signs = np.asarray(signs, dtype=np.float64)
    if signs.ndim != 2 or signs.shape[1] != n:
        raise ConfigError(f"batch shape {signs.shape} incompatible with input_dim {n}")
    return signs


def probe_factor(signs: np.ndarray, n: int) -> np.ndarray:
    """The first-layer factor of sample_outputs for the sign rows (m, n):
    R (k, m), k = min(n, m), from a QR of signs^T, so R^T R = signs signs^T.
    It depends on the inputs alone, so one factor serves every trial."""
    r = np.linalg.qr(_sign_batch(signs, n).T, mode="r")
    r.flags.writeable = False
    return r


def sample_outputs(config: NetworkConfig, trial_index: int, factor: np.ndarray) -> np.ndarray:
    """phi at m inputs -> (m,) of one network drawn from the stream derived
    from (config.seed, trial_index), layer by layer; `factor` is
    probe_factor(signs, config.n) of the inputs' sign rows.

    With H the (n_{l-1}, m) inputs or post-activations of layer l and
    R^T R = H^T H (R from a QR of H, k = min(n_{l-1}, m) rows), the
    preactivations are G R sqrt(sigma_w^2 / n_{l-1}) + sqrt(sigma_b^2) g 1^T
    with G (n_l, k) and g (n_l, 1) standard normal, drawn in that order.
    Duplicate or dependent inputs need no jitter: R may be singular.
    """
    rng = spawn_rng(config.seed, STREAM_OUTPUTS, trial_index)
    act = get_activation(config.activation)
    dims = config.dims
    last = len(dims) - 2
    r = factor
    for l in range(last + 1):
        g = rng.standard_normal((dims[l + 1], r.shape[0]))
        z = g @ r * np.sqrt(config.sigma_w2 / dims[l])
        z += np.sqrt(config.sigma_b2) * rng.standard_normal((dims[l + 1], 1))
        if l < last:
            r = np.linalg.qr(act(z), mode="r")
    return z[0]


# ---------------------------------------------------------------------------
# forward paths
# ---------------------------------------------------------------------------


def forward_batch(net: DeepNet, signs: np.ndarray) -> np.ndarray:
    """phi for a batch of sign rows, shape (m, n) -> (m,)."""
    signs = _sign_batch(signs, net.config.n)
    z1 = signs @ net.weights[0].T
    z1 += net.biases[0]
    return forward_from_first_layer(net, z1)


def forward(net: DeepNet, x: BitString) -> float:
    """phi(x) by the full layer recursion."""
    return float(forward_batch(net, x.signs[None, :])[0])


def forward_from_first_layer(net: DeepNet, z1: np.ndarray) -> np.ndarray:
    """phi from first-layer preactivations (m, n_1) -> (m,): the layers above the first."""
    act = net.activation
    h = act(z1)
    last = len(net.weights) - 1
    for l in range(1, last):
        z = h @ net.weights[l].T
        z += net.biases[l]
        h = act(z)
    z = h @ net.weights[last].T
    z += net.biases[last]
    return z[:, 0]


def flip_rows(net: DeepNet, x: BitString, bits) -> np.ndarray:
    """Row k is the change of z1 = W^(1) x + b^(1) when bit bits[k] flips,
    -2 x_i W^(1)[:, i], exactly (x_i = +-1, factor 2), as a fresh C-ordered
    array. No search re-flips a bit, so x's signs stay valid."""
    return np.multiply(net.weights[0].T[bits], -2.0 * x.signs[bits, None], order="C")


def _live_units(z1: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The first-layer units that some row z1 + f, f <= hi unit by unit, may
    turn on: all but those with z1 + hi <= 0 (a NaN is kept)."""
    return np.flatnonzero(~(z1 + hi <= 0.0))


def screen_flips(
    net: DeepNet, z1: np.ndarray, x: BitString
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The layers above the first in float32, for the float64 first-layer
    preactivations z1 + flip_rows(net, x, i) of every bit i (each sum is
    rounded once to float32, not stored): (phi, eps), both float64 (n,),
    with |phi - phi64| <= eps for any float64 evaluation phi64 of a row.
    Only the units that some flip may turn on are multiplied (module
    docstring). None when net has no screen or a row overflows float32, so
    that phi or eps is not finite."""
    tail = net._screen
    if tail is None:
        return None
    live = _live_units(z1, tail.hi)
    weights = (tail.weights[0][..., live], *tail.weights[1:])
    carry = (tail.carry[0][live], *tail.carry[1:])
    eps = np.full(x.n, tail.const)
    last = len(weights) - 1
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        rows = net.weights[0][live]
        rows *= -2.0 * x.signs
        h = np.empty(rows.shape, np.float32)
        np.add(rows, z1[live, None], out=h, casting="same_kind")
        np.maximum(h, 0.0, out=h)
        for l, (w, b, r, c) in enumerate(zip(weights, tail.biases, carry, tail.coef)):
            eps += c * (r @ h)
            if l < last:
                z = w @ h
                z += b[:, None]
                h = np.maximum(z, 0.0, out=z)
        phi = (w @ h + b).astype(np.float64)
    eps *= _SCREEN_SLACK
    if not (np.isfinite(phi).all() and np.isfinite(eps).all()):
        return None
    return phi, eps


def forward_with_first_layer_cache(net: DeepNet, x: BitString) -> Tuple[float, np.ndarray]:
    """phi(x) and the first-layer preactivations z1 = W^(1) x + b^(1).

    Flipping bit i adds flip_rows(net, x, i) to z1, so a set of flips
    costs one row add per bit plus the layers above the first through
    forward_from_first_layer.
    """
    if x.n != net.config.n:
        raise ConfigError(f"input length {x.n} != network input_dim {net.config.n}")
    z1 = net.weights[0] @ x.signs + net.biases[0]
    phi = float(forward_from_first_layer(net, z1[None, :])[0])
    return phi, z1
