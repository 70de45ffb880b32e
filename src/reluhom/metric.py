"""Hamming-distance matrices over activation patterns.

``hamming_matrix`` takes a batch of patterns as one packed byte array
(``network.PackedBits``; a list of ``BitVector``s is packed once on entry).
It deduplicates rows in first-occurrence order by a dict keyed on each
row's bytes and hands the kernel the distinct packed rows.  (``np.unique``
over the rows is slightly faster, but its sorted copies of every row raised
the circle pipeline's peak RSS by about 0.4 MiB.)

Distances are stored as doubles so Hamming, Euclidean, and min/max-combined
matrices share one type.  Hollow symmetry is enforced; the triangle
inequality deliberately is not (min-combined matrices can violate it and
are still valid persistence input).
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, FormatError, NonFiniteEntry
from .network import PackedBits


@dataclass(frozen=True)
class DistanceMatrix:
    """Hollow symmetric non-negative matrix with row labels."""

    data: np.ndarray
    labels: tuple = None

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DimensionMismatch(f"not square: {d.shape}")
        # a NaN never equals itself, so a symmetric matrix has none; the
        # errors keep their order: NaN, not hollow, not symmetric, negative.
        # Rows are compared with their columns a block at a time, so no
        # (n, n) temporary is made.
        rows = _kernels.blocks(d.shape[0], d.shape[0])      # a bool per entry
        symmetric = all(np.array_equal(d[r], d[:, r].T) for r in rows)
        if not symmetric:
            for r in rows:
                nan = np.isnan(d[r])
                if nan.any():
                    i, j = np.argwhere(nan)[0]
                    raise NonFiniteEntry(f"entry ({r.start + i}, {j}) is NaN")
        if np.any(np.diagonal(d) != 0.0):
            raise FormatError("matrix is not hollow")
        if not symmetric:
            raise FormatError("matrix is not symmetric")
        if d.size and d.min() < 0.0:
            raise FormatError("matrix has negative entries")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)
        labels = self.labels
        if labels is None:
            labels = tuple(str(i) for i in range(d.shape[0]))
        else:
            labels = tuple(str(l) for l in labels)
            if len(labels) != d.shape[0]:
                raise DimensionMismatch("label count != matrix size")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self):
        return self.data.shape[0]


def hamming_matrix(vectors, deduplicate=False):
    """Pairwise Hamming distances, optionally over distinct vectors only.

    `vectors` is a PackedBits or a sequence of BitVectors of one length.
    Each row is labelled with the index of its first vector among `vectors`.
    """
    bits = PackedBits.of(vectors)
    k, size = bits.packed.shape
    if not k:
        raise FormatError("no bit vectors given")
    first = np.arange(k)
    if deduplicate:
        raw, seen = bits.packed.tobytes(), {}
        for i in range(k):
            seen.setdefault(raw[size * i:size * (i + 1)], i)
        first = np.fromiter(seen.values(), np.int64, len(seen))
    labels = tuple(str(i) for i in first.tolist())
    return DistanceMatrix(_kernels.hamming_matrix_packed(bits.packed[first]), labels)


def combine(d1, d2, op):
    """Entrywise min or max of two aligned distance matrices."""
    if op not in ("min", "max"):
        raise FormatError(f"op must be 'min' or 'max', got {op!r}")
    if d1.size != d2.size:
        raise DimensionMismatch(f"sizes differ: {d1.size} vs {d2.size}")
    if d1.labels != d2.labels:
        raise DimensionMismatch("matrix labels are not aligned")
    f = np.minimum if op == "min" else np.maximum
    return DistanceMatrix(f(d1.data, d2.data), d1.labels)
