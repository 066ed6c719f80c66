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

FlipScreen is a cheaper, certified look at every single flip of x for ReLU
nets (the built-in RELU object, chosen by identity), made for one greedy
search and called with each step's z1: the float64 rows a = z1 + flip row
go through a float32 copy of the tail, and each row comes with a rigorous
bound eps >= |phi32 - phi64| against any float64 evaluation of that row,
whatever its summation order. With u = 2^-24 and gamma_K = K u / (1 - K u)
for a fan-in K, the terms are, carried to the output by the per-net vectors
r_k = |w_out| |W_L| .. |W_{k+1}| (so each is one gemv of nonnegative float32
numbers per layer):

* the cast of a: u * r_1 . h1, exact through ReLU, which keeps signs;
* each matrix product, its weight cast and its bias add:
  (gamma_K + 3u) * r_k . h_k (the add's u |z| is at most u (|W| h + |b|));
* each cast bias and bias add: 2u * r_{k+1} . |b_k|;
* underflow (or flush to zero) of any float32 operation: at most 2^-126
  absolutely each, a per-net constant.

The first tail layer's product is split in three kinds of unit (below), so
its terms differ: there K = n_1 + 1, one more row, and the coefficient is
c_1 = (gamma_K + 5u) / (1 - gamma_K), the cast of a and one more add
included. Each gemv is divided by (1 - gamma_K), so that its own rounding
can only raise the bound, and the sum is raised by 2^-20 relatively, which
covers the float64 arithmetic of the bound and the float64 evaluation's own
error (at most 2^-22 of the float32 bound: 2^-28 of every term charged
gamma_K, and 2^-23 of the term of D below). So two float64 evaluations of
one row, for instance inside batches of different sizes, differ by at most
FLOAT64_SPREAD * eps.

A net has a screen (its _Float32Tail) unless one of these holds: its
activation is not the built-in RELU object; a width is above 2^16 or there
are more than 32 hidden layers; a weight or bias is one that float32 cannot
hold to relative precision u (overflow or below 2^-126); or a screen of its
n flips costs fewer than 2^23 tail multiply-adds, where the screen's fixed
costs (its float32 copy of the net, a dozen numpy calls) outweigh what it
saves (measured break-even at about n = 192 for two hidden layers of n; the
gate screens two hidden layers of width n from n = 203 on).

No flip changes z1[u] by more than hi[u] = 2 max_i |W^(1)[u, i]|, computed
once per net with the float32 tail (2 |w| is exact, and a bound of the
exact change bounds its rounding too). Rounded addition and subtraction
and the float32 cast are monotone, so the screen sorts the first-layer
units of a call at z1_s into three kinds:

* dead: z1_s[u] + hi[u] <= 0 in float64. Every row's h1[u] is exactly 0
  after ReLU, and the unit is dropped. Each float32 sum of the first
  product thus loses only zero terms: its value is that of the full sum
  over k <= K live terms, and gamma_k <= gamma_K, so the bound, which
  charges the full fan-in K, holds unchanged.
* kept, the set L: z1_1[u] - hi[u] > 0 in float64 at the search's first
  call z1_1, so every row a_1 of that call is positive there. That call
  keeps P, the float32 product of the first tail layer over L of the rows
  h1 = fl32(a_1) (ReLU changes none of them), and A = r_1[L] . h1[L].
  A later call's rows are a_s = a_1 + d up to roundings, d = z1_s - z1_1,
  and relu(a) = a + relu(-a): so the product over L of relu(a_s) is P,
  plus g = W_2[:, L] fl64(d) (a float64 gemv, cast to float32), plus the
  product over relu(-a_s), which is exactly 0 for a unit of L still on in
  every row.
* multiplied: the live units outside L, with rows relu(v) for
  v = fl32(a_s), and the units of L no longer on in every row
  (fl64(z1_s[u] - hi[u]) <= 0), with rows relu(-v). A call multiplies only
  these, in one product whose last row is g's against a row of ones, then
  adds P. At the first call d = 0 and no unit has left L.

The split's terms, with D = r_1[L] . |fl64(d)[L]| and r_2 the carry of the
first tail layer's outputs (1 when they are the output):

* c_1 * r_1 . h over the multiplied rows: their product, weight cast and
  cast of a_s (relu(-v) is as exact through ReLU as relu(v)), the add of P
  and the bias add;
* c_1 * A: P's product (fan-in |L| <= K) and weight cast, the cast of h1,
  the add of P and the bias add;
* c_1 * r_2 . |g|: g's cast, its row's share of the product, the add of P
  and the bias add;
* c_1 / 64 * D: g's float64 gemv (fan-in n_1, on W_2 itself, so no weight
  cast) and the float64 roundings of d and of a_s against a_1, at most
  (n_1 + 3) 2^-53 D, far below c_1 / 64 >= (n_1 + 1) 2^-30; and 2^-52 A,
  which the 2^-20 covers;
* underflow in P's product, g's gemv and cast, the added row and add, and
  the cast of h1, in the per-net constant.

The float64 evaluation's error in the first tail layer, gamma_{n_1} in
float64 times r_1 . relu(a_s) <= r_1 . h + A + D (to first order), is thus
at most 2^-28 of the terms charged c_1 and 2^-23 of c_1 / 64 * D.

W^(1) is unit-major, so the flip rows of a set of units are their rows of
W^(1) scaled by -2 x, the values of flip_rows exactly (a product by +-2 is
exact), and a screen builds no n x n flip table. The float32 tail is
unit-major too (W^T, C-ordered), so the units' weights of the first tail
layer are contiguous rows; gamma_K holds for any float32 summation order.
The tail keeps no bias vector that is all zero (every hidden layer at
sigma_b^2 = 0), whose add changes no value.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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
_AHEAD_MIN_NORMALS = 2**15  # normals of a net worth drawing ahead
_BLOCK_NORMALS = 2**15  # normals of a block of a net's draw, unless one row holds more
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
    """A net's layers above the first in float32, with FlipScreen's bound:
    per layer the weights transposed, unit-major (row k holds the weights
    out of unit k of the layer below; the output layer's as a vector), the
    biases (None for a vector of zeros, whose add is skipped), the
    rounded-up carry vector r_k and the coefficient of r_k . h_k, plus the
    per-net constant of the bias and underflow terms and the per-unit flip
    bound hi of the unit selection."""

    weights: Tuple[np.ndarray, ...]
    biases: Tuple[Optional[np.ndarray], ...]
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
        above, r = r, r @ w_mag
        if not all(map(_fits_float32, (w_mag, b_mag))):
            return None
        with np.errstate(over="ignore"):  # an infinite carry is checked below
            w, r32 = np.ascontiguousarray(w64.astype(np.float32).T), r.astype(np.float32)
        if not np.isfinite(r32).all():
            return None
        weights.append(w)
        biases.append(b64.astype(np.float32) if b64.any() else None)
        carry.append(np.where(r32 < r, np.nextafter(r32, np.float32(np.inf)), r32))
        coef.append(np.float64((gamma + 3.0 * _U32) / (1.0 - gamma)))
    # the first tail layer's product is FlipScreen's (module docstring): one
    # more row (g's) and one more add (P's), with the cast of the rows in
    # the same gemv; the underflow of P's product, g's gemv and cast, the
    # added row and P's add, doubled, and of the casts of the rows and h1
    gamma = (fan_in + 1) * _U32 / (1.0 - (fan_in + 1) * _U32)
    coef[-1] = np.float64((gamma + 5.0 * _U32) / (1.0 - gamma))
    const += (8 * fan_in + 6) * _TINY32 * (float(above.sum()) + 1.0)
    const += 2.0 * _TINY32 * float(r.sum())
    weights[0] = weights[0].ravel()
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


_Net = Tuple[List[np.ndarray], List[np.ndarray]]  # weights, biases: one array a layer


def _empty_net(config: NetworkConfig) -> _Net:
    """Uninitialized float64 weights and biases of config's layers."""
    dims = config.dims
    weights = [np.empty((dims[l + 1], dims[l])) for l in range(len(dims) - 1)]
    return weights, [np.empty(dims[l + 1]) for l in range(len(dims) - 1)]


def _normals(config: NetworkConfig) -> int:
    """The normals of one net of config: every weight and bias."""
    dims = config.dims
    return sum(dims[l + 1] * (dims[l] + 1) for l in range(len(dims) - 1))


def _blocks(config: NetworkConfig, net: _Net) -> List[Tuple[np.ndarray, np.float64]]:
    """net, from _empty_net(config), cut in draw order: layer by layer, the
    weights' row blocks, then the biases', each of at most _BLOCK_NORMALS
    normals (or one row), with its scale. Consecutive fills of the blocks
    of one array draw the bytes that one fill of the whole array draws."""
    dims = config.dims
    blocks = []
    for l, (w, b) in enumerate(zip(*net)):
        scales = np.sqrt(config.sigma_w2 / dims[l]), np.sqrt(config.sigma_b2)
        for array, scale in zip((w, b), scales):
            rows = max(1, _BLOCK_NORMALS * len(array) // array.size)
            blocks += ((array[r : r + rows], scale) for r in range(0, len(array), rows))
    return blocks


class _NetDraw:
    """The draw of one net from the stream derived from (config.seed,
    trial_index). Its arrays are allocated on the thread that makes it; it
    allocates no other array, so a helper thread may fill the arrays of
    another thread's heap. The blocks (_blocks) are filled in stream order,
    per block standard_normal(out=block), then the scale, each by whichever
    thread comes to it first: drawing_ahead's helper fills blocks (fill)
    until the net is claimed, and claim fills the rest."""

    def __init__(self, config: NetworkConfig, trial_index: int):
        self.net = _empty_net(config)
        self.blocks = _blocks(config, self.net)
        self.drawn = 0
        self.rng = spawn_rng(config.seed, STREAM_NETWORK, trial_index)
        self.lock = threading.Lock()  # held for each block, so one thread draws at a time
        self.claimed = False
        self.helper: Optional[Future] = None  # fill, when submitted to a helper

    def _draw_block(self) -> None:
        array, scale = self.blocks[self.drawn]
        self.rng.standard_normal(out=array)
        array *= scale
        self.drawn += 1

    def fill(self) -> None:
        """Draw blocks until the net is claimed or complete."""
        while True:
            with self.lock:
                if self.claimed or self.drawn == len(self.blocks):
                    return
                self._draw_block()

    def claim(self) -> _Net:
        """The complete net: the helper stops after the block it is
        drawing, if any, and this thread draws the blocks left. An
        exception the helper raised on this net is raised here."""
        # set before taking the lock, which fill may retake between blocks:
        # once this thread holds it, fill draws no further block
        self.claimed = True
        with self.lock:
            pass  # the block in progress, if any, is drawn
        while self.drawn < len(self.blocks):
            self._draw_block()
        if self.helper is not None and not self.helper.cancel():
            self.helper.result()
        return self.net


# Nets put by drawing_ahead, by (config, trial_index), for sample_network to
# claim; module state, as sample_network(config, trial_index) takes no other
# argument. Only the thread inside drawing_ahead puts, takes or drops
# entries; the helper thread only fills their blocks.
_drawn_ahead: Dict[Tuple[NetworkConfig, int], _NetDraw] = {}


@contextmanager
def drawing_ahead() -> Iterator[Callable[[NetworkConfig, int], None]]:
    """A helper thread that draws the caller's next nets while the caller
    works on the current one.

    draw(config, trial_index) allocates that net's arrays on the calling
    thread and queues the net for the helper, which fills the blocks of the
    oldest queued net not yet claimed (numpy releases the interpreter lock
    while it fills an array). So the arrays come from and go back to the
    calling thread's heap, whose freed pages the next trial reuses; arrays
    allocated on the helper came from its own glibc arena and faulted in
    fresh pages. draw keeps the two entries put before it, for the calls
    about to use them, and drops any older entry that no sample_network
    took: a caller that puts trial k+2's net as trial k starts holds at
    most three nets at a time. sample_network(config, trial_index) claims
    the entry of exactly its (config, trial_index) and draws the blocks the
    helper has not reached, so it never waits for more than one block, and
    the net is the inline draw's bit for bit.

    A net of fewer than 2^15 normals is left to sample_network: handing it
    to the helper and back costs more than drawing it (measured break-even
    at about n = 112-128 for two hidden layers of n), so a run of small
    nets starts no thread. On exit, by return or exception, no entry is
    left and the helper has stopped.
    """
    helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bitboundary-draw")

    def draw(config: NetworkConfig, trial_index: int) -> None:
        for key in list(_drawn_ahead)[:-2]:
            _drawn_ahead.pop(key).helper.cancel()
        if _normals(config) < _AHEAD_MIN_NORMALS:
            return
        net = _NetDraw(config, trial_index)
        net.helper = helper.submit(net.fill)
        _drawn_ahead[config, trial_index] = net

    try:
        yield draw
    finally:
        _drawn_ahead.clear()
        helper.shutdown(cancel_futures=True)


def sample_network(config: NetworkConfig, trial_index: int) -> DeepNet:
    """Draw a network from the stream derived from (config.seed, trial_index).

    Per layer, weights are drawn before biases; layers in order. The same
    (seed, trial_index) therefore reproduces the network bit for bit, also
    when drawing_ahead's helper drew some or all of its blocks: this call
    claims that net and draws the rest, or draws the whole net itself.
    """
    draw = _drawn_ahead.pop((config, trial_index), None) or _NetDraw(config, trial_index)
    return DeepNet(config, *draw.claim())


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


class _Kept(NamedTuple):
    """What a FlipScreen keeps from its first call: that call's z1, the
    mask of the units L that every flip of it leaves on, the float32
    product of the first tail layer over L and the bound's constant plus
    its term of L (module docstring)."""

    z1: np.ndarray
    on: np.ndarray
    product: np.ndarray
    eps: np.ndarray


class FlipScreen:
    """Greedy's float32 screen of the flips of x, for one search: called
    with a step's float64 first-layer preactivations z1, the layers above
    the first in float32 for z1 + flip_rows(net, x, i) of every bit i (each
    sum is rounded once to float32, not stored): (phi, eps), both float64
    (n,), with |phi - phi64| <= eps for any float64 evaluation phi64 of a
    row. The first call keeps its product over the units that every flip
    leaves on, and later calls multiply only the units that some flip may
    turn on besides them, or that have left them (module docstring). None
    when net has no screen or a row overflows float32, so that phi or eps
    is not finite; such a call keeps nothing, and the next keeps afresh."""

    def __init__(self, net: DeepNet, x: BitString):
        self.net = net
        self.tail = net._screen
        self.scale = -2.0 * x.signs  # flip_rows' factor of each bit
        self.kept: Optional[_Kept] = None

    def _rows(self, z1: np.ndarray, units: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Into out, the float32 roundings of z1[u] + flip_rows(net, x, i)[u]
        for the units u (an index array or a mask) and every bit i."""
        rows = self.net.weights[0][units]
        rows *= self.scale
        return np.add(rows, z1[units, None], out=out, casting="same_kind")

    def _keep(self, z1: np.ndarray) -> _Kept:
        tail = self.tail
        on = z1 - tail.hi > 0.0  # a NaN is not on
        h = self._rows(z1, on, np.empty((np.count_nonzero(on), len(self.scale)), np.float32))
        eps = np.full(len(self.scale), tail.const)
        eps += tail.coef[0] * (tail.carry[0][on] @ h)  # h >= 0: its ReLU changes nothing
        return _Kept(z1, on, tail.weights[0][on].T @ h, eps)

    def __call__(self, z1: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        tail = self.tail
        if tail is None:
            return None
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
            if self.kept is None:
                self.kept = self._keep(z1)
            first, on, product, eps = self.kept
            live = _live_units(z1, tail.hi)
            outside = live[~on[live]]
            left = np.flatnonzero(on & ~(z1 - tail.hi > 0.0))  # L units no longer on
            units = np.concatenate((outside, left))
            m, w0, c0 = len(units), tail.weights[0], tail.coef[0]
            # rows relu(v) of the units outside L and relu(-v) of those
            # that left it, then ones: the row of the change of z1 over L
            h = np.empty((m + 1, len(self.scale)), np.float32)
            self._rows(z1, units, h[:m])
            np.negative(h[len(outside) : m], out=h[len(outside) : m])
            np.maximum(h[:m], 0.0, out=h[:m])
            h[m] = 1.0
            delta = np.where(on, z1 - first, 0.0)
            g = self.net.weights[1] @ delta  # in float64, so its error is O(2^-53)
            w = np.empty((m + 1, *w0.shape[1:]), np.float32)
            np.take(w0, units, axis=0, out=w[:m])
            w[m] = g.reshape(w0.shape[1:])
            above = tail.carry[1] if len(tail.carry) > 1 else np.ones(1)
            eps = eps + c0 * float(np.abs(g) @ above)
            eps += c0 / 64.0 * float(tail.carry[0] @ np.abs(delta))
            eps += c0 * (tail.carry[0][units] @ h[:m])
            z = w.T @ h
            z += product
            for b, w, r, c in zip(tail.biases, tail.weights[1:], tail.carry[1:], tail.coef[1:]):
                if b is not None:
                    z += b[:, None]
                h = np.maximum(z, 0.0, out=z)
                eps += c * (r @ h)
                z = w.T @ h
            if tail.biases[-1] is not None:
                z += tail.biases[-1]
            phi = z.astype(np.float64)
        eps *= _SCREEN_SLACK
        if not (np.isfinite(phi).all() and np.isfinite(eps).all()):
            self.kept = None
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
