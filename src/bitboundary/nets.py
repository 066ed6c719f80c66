"""Random deep fully-connected networks evaluated on bit strings.

A network with hidden widths (n_1, .., n_L) maps x in {-1,+1}^n to the scalar

    phi(x) = W^(L+1) tau(... tau(W^(1) x + b^(1)) ...) + b^(L+1),

with independent Gaussian entries, weight variance sigma_w^2 / n_{l-1} and
bias variance sigma_b^2. The classifier is psi(x) = sign(phi(x)) with the
deterministic tie rule sign(0) = +1.

All math is float64 with a fixed summation order (row-major matrix products),
so a given (config, trial_index) reproduces phi bit for bit. Single-bit flips
reuse the first-layer preactivations: flipping bit i changes W^(1) x by
-2 x_i W^(1)[:, i], so only the layers above the first are recomputed.

sample_outputs draws phi at a few fixed inputs without drawing any weight
matrix: given the layer below, the preactivations of layer l at m inputs
(the columns of H) are Gaussian with covariance sigma_w^2 / n_{l-1} H^T H +
sigma_b^2, independently per unit. This is the finite network's exact law,
at n_l * m normals per layer instead of n_l * n_{l-1}.

Weight files use a little-endian binary format: magic "SBNW", version u32,
layer count u32 (= L+1), the L+2 dims as u32, all weight matrices (row-major
f64) in layer order, then all bias vectors, then a CRC32 of everything that
precedes it.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence, Tuple, Union

import numpy as np

from .activations import Activation, get_activation
from .bitstrings import BitString
from .errors import ConfigError
from .kernel import validate_variances
from .rng import STREAM_NETWORK, STREAM_OUTPUTS, spawn_rng

SBNW_MAGIC = b"SBNW"
SBNW_VERSION = 1


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
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.n < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.n}")
        if len(self.hidden_widths) < 1 or any(w < 1 for w in self.hidden_widths):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden_widths}")
        validate_variances(self.sigma_w2, self.sigma_b2)
        get_activation(self.activation)

    @classmethod
    def default(cls, n: int, seed: int = 0) -> "NetworkConfig":
        """Two hidden layers of width n, sigma_w^2 = 2, sigma_b^2 = 0, ReLU."""
        return cls(n=n, hidden_widths=(n, n), seed=seed)

    @property
    def depth(self) -> int:
        """Number of hidden layers L."""
        return len(self.hidden_widths)

    @property
    def dims(self) -> Tuple[int, ...]:
        """Layer sizes n_0 .. n_{L+1} (input, hidden, scalar output)."""
        return (self.n, *self.hidden_widths, 1)


class DeepNet:
    """Immutable sampled (or hand-built) network."""

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
    def w1_columns(self) -> np.ndarray:
        """First-layer weights transposed (row i = column i of W^(1)),
        contiguous so flip updates slice whole rows."""
        return np.ascontiguousarray(self.weights[0].T)

    @cached_property
    def digest(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(repr(self.config).encode())
        for w, b in zip(self.weights, self.biases):
            h.update(w.tobytes())
            h.update(b.tobytes())
        return h.hexdigest()

    def __repr__(self) -> str:
        return f"DeepNet(dims={self.config.dims}, digest={self.digest[:8]})"


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
        w = rng.standard_normal((dims[l + 1], fan_in)) * np.sqrt(config.sigma_w2 / fan_in)
        b = rng.standard_normal(dims[l + 1]) * np.sqrt(config.sigma_b2)
        weights.append(w)
        biases.append(b)
    return DeepNet(config, weights, biases)


def _sign_batch(signs: np.ndarray, n: int) -> np.ndarray:
    """signs as a float64 (m, n) batch, or ConfigError."""
    signs = np.asarray(signs, dtype=np.float64)
    if signs.ndim != 2 or signs.shape[1] != n:
        raise ConfigError(f"batch shape {signs.shape} incompatible with input_dim {n}")
    return signs


def sample_outputs(config: NetworkConfig, trial_index: int, signs: np.ndarray) -> np.ndarray:
    """phi at the sign rows (m, n) -> (m,) of one network drawn from the
    stream derived from (config.seed, trial_index), layer by layer.

    With H the (n_{l-1}, m) inputs or post-activations of layer l and
    R^T R = H^T H (R from a QR of H, k = min(n_{l-1}, m) rows), the
    preactivations are G R sqrt(sigma_w^2 / n_{l-1}) + sqrt(sigma_b^2) g 1^T
    with G (n_l, k) and g (n_l, 1) standard normal, drawn in that order.
    Duplicate or dependent inputs need no jitter: R may be singular.
    """
    signs = _sign_batch(signs, config.n)
    rng = spawn_rng(config.seed, STREAM_OUTPUTS, trial_index)
    act = get_activation(config.activation)
    dims = config.dims
    h = signs.T
    last = len(dims) - 2
    for l in range(last + 1):
        r = np.linalg.qr(h, mode="r")
        g = rng.standard_normal((dims[l + 1], r.shape[0]))
        z = g @ r * np.sqrt(config.sigma_w2 / dims[l])
        z += np.sqrt(config.sigma_b2) * rng.standard_normal((dims[l + 1], 1))
        h = z if l == last else act(z)
    return z[0]


# ---------------------------------------------------------------------------
# forward paths
# ---------------------------------------------------------------------------


def forward_batch(net: DeepNet, signs: np.ndarray) -> np.ndarray:
    """phi for a batch of sign rows, shape (m, n) -> (m,)."""
    signs = _sign_batch(signs, net.config.n)
    act = net.activation
    h = signs
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w.T + b
        h = z if l == last else act(z)
    return z[:, 0]


def forward(net: DeepNet, x: BitString) -> float:
    """phi(x) by the full layer recursion."""
    if x.n != net.config.n:
        raise ConfigError(f"input length {x.n} != network input_dim {net.config.n}")
    return float(forward_batch(net, x.signs[None, :])[0])


def forward_from_first_layer(net: DeepNet, z1: np.ndarray) -> np.ndarray:
    """phi from a batch of first-layer preactivations, shape (m, n_1) -> (m,)."""
    act = net.activation
    h = act(z1)
    last = len(net.weights) - 1
    for l in range(1, last):
        h = act(h @ net.weights[l].T + net.biases[l])
    z = h @ net.weights[last].T + net.biases[last]
    return z[:, 0]


def forward_with_first_layer_cache(net: DeepNet, x: BitString) -> Tuple[float, np.ndarray]:
    """phi(x) and the first-layer preactivations z1 = W^(1) x + b^(1).

    Flipping bit i turns z1 into z1 - 2 x_i W^(1)[:, i] (a row of
    net.w1_columns), so any single-bit flip costs only the layers above the
    first through forward_from_first_layer.
    """
    if x.n != net.config.n:
        raise ConfigError(f"input length {x.n} != network input_dim {net.config.n}")
    z1 = net.weights[0] @ x.signs + net.biases[0]
    phi = float(forward_from_first_layer(net, z1[None, :])[0])
    return phi, z1


def sign_with_tie(phi: float) -> int:
    """Classifier sign with the documented tie rule sign(0) = +1."""
    return 1 if phi >= 0.0 else -1


def classify(net: DeepNet, x: BitString) -> int:
    """psi(x) in {-1, +1}."""
    return sign_with_tie(forward(net, x))


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------


def save_weights(net: DeepNet, path: Union[str, Path]) -> None:
    """Write the SBNW binary weight file (see module docstring)."""
    dims = net.config.dims
    parts = [
        SBNW_MAGIC,
        struct.pack("<I", SBNW_VERSION),
        struct.pack("<I", len(net.weights)),
        struct.pack(f"<{len(dims)}I", *dims),
    ]
    parts.extend(np.ascontiguousarray(w, dtype="<f8").tobytes() for w in net.weights)
    parts.extend(np.ascontiguousarray(b, dtype="<f8").tobytes() for b in net.biases)
    payload = b"".join(parts)
    Path(path).write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))


def load_weights(
    path: Union[str, Path],
    activation: str = "relu",
    sigma_w2: float = 2.0,
    sigma_b2: float = 0.0,
    seed: int = 0,
) -> DeepNet:
    """Load an SBNW file as an immutable DeepNet.

    The file stores realized weights only, so the variance and activation
    fields of the reconstructed config are declared metadata, not recovered
    quantities.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != SBNW_MAGIC:
        raise ConfigError(f"{path}: not an SBNW weight file")
    body, (crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != crc:
        raise ConfigError(f"{path}: CRC mismatch (file corrupted)")
    version, n_layers = struct.unpack("<II", body[4:12])
    if version != SBNW_VERSION:
        raise ConfigError(f"{path}: unsupported SBNW version {version}")
    n_dims = n_layers + 1
    header_end = 12 + 4 * n_dims
    if len(body) < header_end:
        raise ConfigError(f"{path}: truncated header")
    dims = struct.unpack(f"<{n_dims}I", body[12:header_end])
    if dims[-1] != 1 or n_layers < 2:
        raise ConfigError(f"{path}: dims {dims} do not describe a scalar-output net")
    expected = sum(dims[l + 1] * dims[l] for l in range(n_layers))
    expected += sum(dims[l + 1] for l in range(n_layers))
    if len(body) != header_end + 8 * expected:
        raise ConfigError(
            f"{path}: payload holds {(len(body) - header_end) // 8} floats, "
            f"expected {expected}"
        )
    flat = np.frombuffer(body, dtype="<f8", offset=header_end)
    weights, biases, pos = [], [], 0
    for l in range(n_layers):
        size = dims[l + 1] * dims[l]
        weights.append(flat[pos : pos + size].reshape(dims[l + 1], dims[l]))
        pos += size
    for l in range(n_layers):
        biases.append(flat[pos : pos + dims[l + 1]])
        pos += dims[l + 1]
    config = NetworkConfig(
        n=dims[0],
        hidden_widths=tuple(dims[1:-1]),
        sigma_w2=sigma_w2,
        sigma_b2=sigma_b2,
        activation=activation,
        seed=seed,
    )
    return DeepNet(config, weights, biases)
