"""Vietoris-Rips persistence over a distance matrix.

Threshold graphs are turned into their clique complex, simplices enter at
their diameter, and persistence over the two-element field is read off
from cohomology, coboundaries reduced bottom-up with clearing (the naive
homology oracle in the test suite pins correctness).  Intervals follow the
[birth, death) convention.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import FormatError, ResourceCapError
from .metric import DistanceMatrix

SIMPLEX_CAP = 50_000_000


@dataclass(frozen=True)
class Filtration:
    """Clique filtration, one (vertices, values) block per dimension.

    Within a dimension, simplices are sorted by (value, lexicographic
    vertex tuple); globally that realizes the (value, dim, lex) order.
    """

    blocks: tuple          # ((n_d, d+1) int32 array, (n_d,) float64 array) per dim
    max_dim: int
    t_max: float
    n_points: int

    def simplices(self):
        """All (vertex tuple, value) pairs in global filtration order."""
        items = []
        for verts, vals in self.blocks:
            for row, val in zip(verts, vals):
                items.append((tuple(int(v) for v in row), float(val)))
        items.sort(key=lambda sv: (sv[1], len(sv[0]), sv[0]))
        return items


def _as_matrix(d):
    if isinstance(d, DistanceMatrix):
        return d.data
    return DistanceMatrix(np.asarray(d, dtype=np.float64)).data


def build_filtration(d, max_dim=1, t_max=None, simplex_cap=SIMPLEX_CAP):
    """All cliques of size <= max_dim + 2 with diameter <= t_max."""
    if max_dim < 0:
        raise FormatError("max_dim must be >= 0")
    D = _as_matrix(d)
    n = D.shape[0]
    if t_max is None:
        finite = D[np.isfinite(D)]
        t_max = float(finite.max()) if finite.size else 0.0
    adj = (D <= t_max) & ~np.eye(n, dtype=bool)

    blocks = []
    verts = np.arange(n, dtype=np.int32)[:, None]
    vals = np.zeros(n, dtype=np.float64)
    total = n
    blocks.append((verts, vals))

    idx = np.arange(n, dtype=np.int32)
    for dim in range(1, max_dim + 2):
        prev_verts, prev_vals = blocks[-1]
        if prev_verts.shape[0] == 0:
            blocks.append((np.empty((0, dim + 1), np.int32), np.empty(0)))
            continue
        # candidates: common neighbors of all clique vertices, above the max
        mask = np.all(adj[prev_verts], axis=1)
        mask &= idx[None, :] > prev_verts[:, -1][:, None]
        ci, cj = np.nonzero(mask)
        total += ci.size
        if total > simplex_cap:
            raise ResourceCapError(
                f"filtration would exceed {simplex_cap} simplices at dim {dim}"
            )
        new_verts = np.hstack([prev_verts[ci], cj[:, None].astype(np.int32)])
        ext = D[new_verts[:, :-1], new_verts[:, -1:]].max(axis=1)
        new_vals = np.maximum(prev_vals[ci], ext)
        order = np.lexsort(
            tuple(new_verts[:, k] for k in range(dim, -1, -1)) + (new_vals,)
        )
        blocks.append((new_verts[order], new_vals[order]))
    return Filtration(tuple(blocks), int(max_dim), float(t_max), n)


@dataclass(frozen=True)
class Barcode:
    """Per-dimension multisets of (birth, death) intervals.

    Zero-length intervals are kept internally; `intervals` drops them by
    default.  Infinite deaths are math.inf.
    """

    pairs: tuple    # tuple over dims of tuples of (birth, death)

    def intervals(self, dim, include_zero_length=False):
        if dim >= len(self.pairs):
            return []
        out = [p for p in self.pairs[dim] if include_zero_length or p[1] > p[0]]
        return sorted(out)

    @property
    def max_dim(self):
        return len(self.pairs) - 1

    def to_json_obj(self, include_zero_length=False):
        return [
            {
                "dim": dim,
                "bars": [
                    [b, None if math.isinf(dth) else dth]
                    for b, dth in self.intervals(dim, include_zero_length)
                ],
            }
            for dim in range(self.max_dim + 1)
        ]


def _encode(verts, n):
    """Pack sorted vertex rows into one comparable integer key per simplex."""
    key = np.zeros(verts.shape[0], dtype=np.int64)
    for k in range(verts.shape[1]):
        key = key * n + verts[:, k]
    return key


def _coboundary(verts, face_verts, n):
    """Anti-transpose of the boundary matrix of `verts` as a CSR triple.

    Column c is the face `face_verts[n_faces-1-c]`, so faces come in
    reverse filtration order; its rows are its cofaces j in `verts`, each
    stored reversed as n_cofaces-1-j.  Built in place to keep the peak small.
    """
    n_cofaces, n_faces = verts.shape[0], face_verts.shape[0]
    dim = verts.shape[1] - 1
    face_keys = _encode(face_verts, n)
    face_order = np.argsort(face_keys)
    sorted_keys = face_keys[face_order]
    del face_keys
    facets = np.empty((n_cofaces, dim + 1), dtype=np.int64)
    for drop in range(dim + 1):
        pos = np.searchsorted(sorted_keys, _encode(np.delete(verts, drop, axis=1), n))
        facets[:, drop] = face_order[pos]
    del sorted_keys, face_order
    facets = facets.reshape(-1)
    np.subtract(n_faces - 1, facets, out=facets)          # face -> column c
    col_ptr = np.zeros(n_faces + 1, dtype=np.int64)
    np.cumsum(np.bincount(facets, minlength=n_faces), out=col_ptr[1:])
    col_rows = np.argsort(facets, kind="stable")          # entries by column
    del facets
    col_rows //= dim + 1                                  # entry -> coface j
    np.subtract(n_cofaces - 1, col_rows, out=col_rows)    # j -> row
    return col_ptr, col_rows


def compute_barcodes(filtration):
    """Persistence pairs from cohomology, coboundaries reduced bottom-up with clearing.

    For d = 1..top, the coboundaries of the (d-1)-simplices are reduced in
    reverse filtration order: the anti-transpose of the boundary matrix of
    the d-simplices.  Its pivots are the pairs of homology (de Silva,
    Morozov, Vejdemo-Johansson, 2011).  A (d-1)-simplex that the previous
    pass paired as a death has a zero reduced coboundary and is skipped
    (clearing), so top-dimension simplices are only ever rows.
    """
    blocks = filtration.blocks
    n = filtration.n_points
    top = len(blocks) - 1

    lows = [None] * (top + 1)
    cleared = np.zeros(blocks[0][0].shape[0], dtype=bool)
    for d in range(1, top + 1):
        n_cofaces = blocks[d][0].shape[0]
        n_faces = blocks[d - 1][0].shape[0]
        col_ptr, col_rows = _coboundary(blocks[d][0], blocks[d - 1][0], n)
        low = _kernels.reduce_columns(col_ptr, col_rows, cleared)
        del col_ptr, col_rows
        cols = np.flatnonzero(low >= 0)
        rows = low[cols]
        lows[d] = np.full(n_cofaces, -1, dtype=np.int64)
        lows[d][n_cofaces - 1 - rows] = n_faces - 1 - cols
        # the deaths, indexed as the next pass's columns
        cleared = np.zeros(n_cofaces, dtype=bool)
        cleared[rows] = True

    pairs = [[] for _ in range(filtration.max_dim + 1)]
    for d in range(1, top + 1):
        vals_lo = blocks[d - 1][1]
        vals_hi = blocks[d][1]
        for j, r in enumerate(lows[d]):
            if r >= 0 and d - 1 <= filtration.max_dim:
                pairs[d - 1].append((float(vals_lo[r]), float(vals_hi[j])))
    # essential classes: unpaired cycles
    for p in range(filtration.max_dim + 1):
        vals = blocks[p][1]
        paired_row = np.zeros(vals.size, dtype=bool)
        if p + 1 <= top and lows[p + 1].size:
            piv = lows[p + 1][lows[p + 1] >= 0]
            paired_row[piv] = True
        if p == 0:
            own_zero = np.ones(vals.size, dtype=bool)
        else:
            own_zero = lows[p] < 0   # includes cleared columns
        for i in np.nonzero(own_zero & ~paired_row)[0]:
            pairs[p].append((float(vals[i]), math.inf))
    return Barcode(tuple(tuple(sorted(p)) for p in pairs))


# ---------------------------------------------------------------------------
# Lower-distance-matrix (LDM) text format: line i (i = 1..n-1) holds the
# comma-separated entries D[i, 0..i-1].  An entry with an integral value is
# written as an integer without a decimal point, any other entry as its
# Python repr (so "inf" for an infinite distance); parsing the text gives
# back the same doubles bit for bit.  Rows are formatted from Python floats
# (no numpy scalar per entry) and parsed with Python's float(), one line at
# a time.
# ---------------------------------------------------------------------------

def _fmt(x):
    return str(int(x)) if x.is_integer() else repr(x)


def export_lower_distance(d, sink):
    """Write the lower triangle as CSV text; round-trips bit-exactly."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w") as fh:
            export_lower_distance(d, fh)
        return
    D = _as_matrix(d)
    for i in range(1, D.shape[0]):
        sink.write(",".join(map(_fmt, D[i, :i].tolist())))
        sink.write("\n")


def read_lower_distance(source):
    """Parse lower-triangular CSV back into a DistanceMatrix."""
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source) as fh:
                return read_lower_distance(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise FormatError(f"cannot read distance file {source}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = np.fromiter(map(float, line.split(",")), np.float64)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if row.size != len(rows) + 1:
            raise FormatError(
                f"line {lineno}: expected {len(rows) + 1} entries, got {row.size}"
            )
        rows.append(row)
    n = len(rows) + 1
    D = np.zeros((n, n))
    for i, row in enumerate(rows, start=1):
        D[i, :i] = row
        D[:i, i] = row
    return DistanceMatrix(D)
