"""ReLU feed-forward networks: loading, evaluation, activation bit vectors.

A network is a chain of affine layers; every hidden layer is followed by a
coordinate-wise ReLU, the output layer is affine only.  The activation
pattern of a point is the binary vector, in layer-major node-ascending
order, recording which hidden pre-activations were strictly positive.  A
``BitVector`` stores one pattern as its length plus one Python int, and is
the key type of an atlas.  A batch of patterns travels as ``PackedBits``:
one (k, ceil(h/8)) uint8 array in ``packbits(bitorder="little")`` layout,
row i holding the little-endian bytes of pattern i's int, with every
padding bit zero.  ``bit_vectors`` makes one, the bits files are written
from and read into one, and the Hamming matrix is computed from one, so no
per-pattern Python object is made between them.
"""

import json
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, FormatError, NonFiniteEntry

#: pre-activations with |z| <= TAU_BIT are treated as exactly zero (bit 0)
TAU_BIT = 1e-12


@dataclass(frozen=True, slots=True)
class BitVector:
    """Immutable activation pattern of ``n`` bits held in one Python int.

    Bit ``i`` of the canonical layer-major order is bit ``i`` of ``value``,
    so xor, popcount and hashing are Python int operations.  Instances are
    hashable and usable as dict keys.
    """

    n: int
    value: int

    def __post_init__(self):
        value = operator.index(self.value)
        if value < 0 or value.bit_length() > self.n:
            raise DimensionMismatch(f"{value} is not a pattern of {self.n} bits")
        object.__setattr__(self, "value", value)

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

    def to01(self):
        # the sentinel bit n keeps the leading zeros; bin() writes it as "0b1"
        return bin(self.value | (1 << self.n))[3:][::-1]

    def popcount(self):
        return self.value.bit_count()

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"BitVector({self.to01()!r})"


class PackedBits:
    """k patterns of h bits as one (k, ceil(h/8)) uint8 array.

    Row i is the little-endian bytes of pattern i's ``BitVector.value``,
    the layout of ``np.packbits(bits, bitorder="little")``; padding bits
    past h are zero, so equal patterns have equal rows.  ``len`` is k, and
    indexing and iteration give ``BitVector``s.
    """

    __slots__ = ("packed", "h")

    def __init__(self, packed, h):
        self.packed = packed
        self.h = h

    @classmethod
    def of(cls, vectors):
        """`vectors` if it is packed already, else a sequence of BitVectors
        of one length packed by one bytes join."""
        if isinstance(vectors, cls):
            return vectors
        lengths = {len(v) for v in vectors}
        if len(lengths) > 1:
            raise DimensionMismatch(f"bit vectors of mixed lengths {sorted(lengths)}")
        return cls.of_values([v.value for v in vectors], lengths.pop() if lengths else 0)

    @classmethod
    def of_values(cls, values, h):
        """Patterns of h bits given as the ints of their ``BitVector.value``,
        packed by one bytes join."""
        size = (h + 7) // 8
        raw = b"".join(value.to_bytes(size, "little") for value in values)
        return cls(np.frombuffer(raw, np.uint8).reshape(len(values), size), h)

    def unpack(self):
        """The (k, h) uint8 array of the patterns' bits."""
        return np.unpackbits(self.packed, axis=1, count=self.h, bitorder="little")

    def __len__(self):
        return self.packed.shape[0]

    def __getitem__(self, i):
        return BitVector(self.h, int.from_bytes(self.packed[operator.index(i)], "little"))

    def __iter__(self):
        return (BitVector(self.h, int.from_bytes(row, "little")) for row in self.packed)


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
    A malformed document raises FormatError; when `source` is a path, the
    message of every error names it.
    """
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "rb") as fh:
                return load_network(fh)
        except OSError as exc:
            raise FormatError(f"cannot read weight file {source}: {exc}") from exc
        except (FormatError, DimensionMismatch, NonFiniteEntry) as exc:
            raise type(exc)(f"{source}: {exc}") from exc
    try:
        doc = source if isinstance(source, dict) else json.load(source)
    except ValueError as exc:                     # bad JSON or UTF-8
        raise FormatError(f"cannot parse weight file: {exc}") from exc
    layers = doc.get("layers") if isinstance(doc, dict) else None
    if not isinstance(layers, list) or "input_dim" not in doc:
        raise FormatError('weight file must be {"input_dim": ..., "layers": [...]}')
    input_dim = doc["input_dim"]
    # JSON true loads as bool, an int subclass
    if not isinstance(input_dim, int) or isinstance(input_dim, bool):
        raise FormatError(f"input_dim must be a JSON integer, got {input_dim!r}")
    weights, biases = [], []
    for i, layer in enumerate(layers, start=1):
        try:
            weights.append(np.array(layer["weights"], dtype=np.float64))
            biases.append(np.array(layer["bias"], dtype=np.float64))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"layer {i}: malformed entry: {exc}") from exc
    return NetworkSpec(tuple(weights), tuple(biases), input_dim)


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


def bit_vectors(net, points, tol=TAU_BIT):
    """Activation patterns of a sequence of points: bit 1 iff z > tol.

    Returns them as one PackedBits.  Points run in blocks of rows whose
    widest layer fits in _kernels.BLOCK_BYTES (64 rows of a 256-wide net),
    so the layer temporaries stay small however many points there are.
    Each block is one matmul and one comparison per layer and one packbits
    into its rows of the output.
    """
    h = net.h
    if len(points) == 0:
        return PackedBits(np.empty((0, (h + 7) // 8), np.uint8), h)
    x = _check_input(net, points)
    if x.ndim != 2:
        raise DimensionMismatch(
            f"points have shape {x.shape}, expected (k, {net.input_dim})"
        )
    out = np.empty((x.shape[0], (h + 7) // 8), np.uint8)
    for blk in _kernels.blocks(x.shape[0], 8 * max(net.hidden_sizes)):
        pre = preactivations(net, x[blk])
        out[blk] = np.packbits(
            np.concatenate([z > tol for z in pre], axis=1), axis=1, bitorder="little"
        )
        del pre          # free this block's layers before the next block's
    return PackedBits(out, h)


def bit_vector(net, x, tol=TAU_BIT):
    """Activation pattern of one point x: bit 1 iff the pre-activation exceeds tol."""
    return bit_vectors(net, [x], tol)[0]


def on_boundary(net, x, tol=TAU_BIT):
    """True when some hidden pre-activation is within tol of zero."""
    return any(np.any(np.abs(z) <= tol) for z in preactivations(net, x))
