"""ReLU feed-forward networks: loading, evaluation, activation bit vectors.

A network is a chain of affine layers; every hidden layer is followed by a
coordinate-wise ReLU, the output layer is affine only.  The activation
pattern of a point is the binary vector, in layer-major node-ascending
order, recording which hidden pre-activations were strictly positive.  A
``BitVector`` stores it as its length plus one Python int; only the
Hamming-matrix kernel sees it as 64-bit words.
"""

import json
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, FormatError, NonFiniteEntry

#: pre-activations with |z| <= TAU_BIT are treated as exactly zero (bit 0)
TAU_BIT = 1e-12


class BitVector:
    """Immutable activation pattern of ``n`` bits held in one Python int.

    Bit ``i`` of the canonical layer-major order is bit ``i`` of ``value``,
    so xor, popcount, hashing and indexing are Python int operations.
    Instances are hashable and usable as dict keys.
    """

    __slots__ = ("n", "value")

    def __init__(self, n, value):
        value = operator.index(value)
        if value < 0 or value.bit_length() > n:
            raise DimensionMismatch(f"{value} is not a pattern of {n} bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("BitVector is immutable")

    @classmethod
    def from_bits(cls, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise DimensionMismatch("bit sequence must be one-dimensional")
        packed = np.packbits(bits, bitorder="little").tobytes()
        return cls(bits.size, int.from_bytes(packed, "little"))

    @classmethod
    def from01(cls, text):
        """Parse a line of ASCII 0/1 digits (surrounding whitespace ignored)."""
        text = text.strip()
        # int(..., 2) alone would also take "_", a sign and non-ASCII digits
        if not text or text.strip("01"):
            raise FormatError(f"not a 0/1 string: {text!r}")
        return cls(len(text), int(text[::-1], 2))

    @property
    def words(self):
        """Read-only uint64 array: bit i is bit i % 64 of word i // 64."""
        raw = self.value.to_bytes(8 * ((self.n + 63) // 64), "little")
        return np.frombuffer(raw, dtype="<u8")

    def to_array(self):
        raw = np.frombuffer(self.value.to_bytes((self.n + 7) // 8, "little"), np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.n]

    def to01(self):
        # the sentinel bit n keeps the leading zeros; bin() writes it as "0b1"
        return bin(self.value | (1 << self.n))[3:][::-1]

    def flip(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        return BitVector(self.n, self.value ^ (1 << i))

    def popcount(self):
        return self.value.bit_count()

    def __getitem__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.value >> i) & 1

    def __len__(self):
        return self.n

    def __eq__(self, other):
        if not isinstance(other, BitVector):
            return False
        return self.n == other.n and self.value == other.value

    def __hash__(self):
        return hash((self.n, self.value))

    def __repr__(self):
        return f"BitVector({self.to01()!r})"


@dataclass(frozen=True)
class NetworkSpec:
    """Weights and biases of an (L+1)-layer ReLU network.

    ``weights[i]`` maps layer i outputs to layer i+1 pre-activations; the
    last entry is the affine output layer (no ReLU).
    """

    weights: tuple = field()
    biases: tuple = field()
    input_dim: int = 0

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise DimensionMismatch("weights/biases count mismatch")
        if len(self.weights) < 2:
            raise DimensionMismatch("need at least one hidden layer plus output layer")
        prev = self.input_dim
        for i, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.size:
                raise DimensionMismatch(f"layer {i}: weight/bias shapes disagree")
            if w.shape[1] != prev:
                raise DimensionMismatch(
                    f"layer {i}: expected {prev} input columns, got {w.shape[1]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NonFiniteEntry(f"layer {i}: non-finite entry")
            prev = w.shape[0]

    @property
    def n_hidden_layers(self):
        return len(self.weights) - 1

    @property
    def hidden_sizes(self):
        return tuple(w.shape[0] for w in self.weights[:-1])

    @property
    def h(self):
        return sum(self.hidden_sizes)

    @property
    def output_dim(self):
        return self.weights[-1].shape[0]

    def bit_offsets(self):
        """Start index of each hidden layer's block in the packed bit vector."""
        offsets = [0]
        for size in self.hidden_sizes:
            offsets.append(offsets[-1] + size)
        return offsets


def load_network(source):
    """Read a weight file (JSON) into a validated NetworkSpec.

    `source` may be a path, a text/byte stream, or an already-parsed dict.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            if hasattr(source, "read"):
                doc = json.load(source)
            else:
                with open(source, "rb") as fh:
                    doc = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"cannot parse weight file: {exc}") from exc
    if not isinstance(doc, dict) or "input_dim" not in doc or "layers" not in doc:
        raise FormatError('weight file must be {"input_dim": ..., "layers": [...]}')
    try:
        weights = []
        biases = []
        for i, layer in enumerate(doc["layers"], start=1):
            w = np.array(layer["weights"], dtype=np.float64)
            b = np.array(layer["bias"], dtype=np.float64)
            weights.append(w)
            biases.append(b)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"layer {i}: malformed weights/bias: {exc}") from exc
    return NetworkSpec(tuple(weights), tuple(biases), int(doc["input_dim"]))


def save_network(net, path):
    doc = {
        "input_dim": net.input_dim,
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()}
            for w, b in zip(net.weights, net.biases)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _check_input(net, x):
    """One point of shape (m,) or a batch of shape (k, m), as finite float64."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != net.input_dim:
        raise DimensionMismatch(
            f"input has shape {x.shape}, network expects ({net.input_dim},) "
            f"or (k, {net.input_dim})"
        )
    bad = ~np.isfinite(x)
    if bad.any():
        where = f"point {np.argwhere(bad)[0][0]}" if x.ndim == 2 else "input"
        raise NonFiniteEntry(f"{where} has a non-finite coordinate")
    return x


def preactivations(net, x):
    """Per hidden layer, the affine values W_i F_{i-1}(x) + b_i before ReLU.

    For a batch of k points each array has shape (k, width), one row per
    point; one point gives one (width,) array per layer.
    """
    x = _check_input(net, x)
    pre = []
    cur = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = cur @ w.T
        z += b
        pre.append(z)
        cur = np.maximum(z, 0.0)
    return pre


def forward(net, x):
    """Evaluate the network; returns (hidden layer outputs, final output)."""
    outputs = [np.maximum(z, 0.0) for z in preactivations(net, x)]
    return outputs, outputs[-1] @ net.weights[-1].T + net.biases[-1]


#: bytes of one (rows x widest hidden layer) float64 block in bit_vectors;
#: 256 rows of a 256-wide net
BIT_BLOCK_BYTES = 512 * 1024


def bit_vectors(net, points, tol=TAU_BIT):
    """Activation patterns of a sequence of points: bit 1 iff z > tol.

    Points run in blocks of rows sized by BIT_BLOCK_BYTES, so the layer
    temporaries stay small however many points there are.  Each block is
    one matmul and one comparison per layer and one packbits; each row of
    packed bytes becomes one BitVector int.
    """
    if len(points) == 0:
        return []
    x = _check_input(net, points)
    if x.ndim != 2:
        raise DimensionMismatch(
            f"points have shape {x.shape}, expected (k, {net.input_dim})"
        )
    rows = max(1, BIT_BLOCK_BYTES // (8 * max(net.hidden_sizes)))
    h = net.h
    out = []
    for start in range(0, x.shape[0], rows):
        pre = preactivations(net, x[start:start + rows])
        packed = np.packbits(
            np.concatenate([z > tol for z in pre], axis=1), axis=1, bitorder="little"
        )
        del pre          # free this block's layers before the next block's
        out.extend(BitVector(h, int.from_bytes(row, "little")) for row in packed)
    return out


def bit_vector(net, x, tol=TAU_BIT):
    """Activation pattern of one point x: bit 1 iff the pre-activation exceeds tol."""
    return bit_vectors(net, [x], tol)[0]


def on_boundary(net, x, tol=TAU_BIT):
    """True when some hidden pre-activation is within tol of zero."""
    return any(np.any(np.abs(z) <= tol) for z in preactivations(net, x))
