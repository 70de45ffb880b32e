"""Vietoris-Rips persistence over a distance matrix.

Threshold graphs are turned into their clique complex, each simplex
recording its facets as it is made, simplices enter at their diameter, and
persistence over the two-element field is read off from cohomology: the
coboundaries, transposes of the facet tables, are reduced bottom-up with
clearing (the naive homology oracle in the test suite pins correctness).
Intervals follow the [birth, death) convention.
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
    """Clique filtration: per dimension a (vertices, values) block and a facet table.

    Within a dimension, simplices are sorted by (value, lexicographic
    vertex tuple); globally that realizes the (value, dim, lex) order.
    facets[d][j, k] is the row of block d-1 equal to row j of block d less
    vertex k (0, the empty simplex, for a vertex); coboundaries transpose it.
    """

    blocks: tuple          # ((n_d, d+1) int32 array, (n_d,) float64 array) per dim
    facets: tuple          # (n_d, d+1) int32 array (int64 past 2**31 rows) per dim
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
    """All cliques of size <= max_dim + 2 with diameter <= t_max.

    Cliques grow in lexicographic order from the empty simplex, whose
    cofaces are the vertices: a simplex is extended by each higher neighbour
    of its last vertex adjacent to all its vertices.  Dropping vertex k of
    the new simplex gives (facet k of its parent, new vertex), one search in
    the previous dimension's (parent, vertex) keys, sorted as they are made.
    """
    if max_dim < 0:
        raise FormatError("max_dim must be >= 0")
    D = _as_matrix(d)
    n = D.shape[0]
    if t_max is None:
        finite = D[np.isfinite(D)]
        t_max = float(finite.max()) if finite.size else 0.0
    if math.isnan(t_max):
        raise FormatError("t_max is NaN")
    near = D <= t_max
    # CSR lists: row 0 holds every vertex, row v + 1 the neighbours of v above v
    lo, hi = np.nonzero(np.triu(near, 1))
    ptr = np.concatenate(([0, n], n + np.cumsum(np.bincount(lo, minlength=n))))
    nbrs = np.concatenate((np.arange(n), hi)).astype(np.int32)
    verts, vals, last = np.empty((1, 0), np.int32), np.zeros(1), np.array([-1])
    levels, total, facets, keys = [], 0, None, None    # the empty simplex: no facets
    for dim in range(max_dim + 2):
        m, start = verts.shape[0], ptr[last + 1]
        count = ptr[last + 2] - start
        itype = np.int32 if max(count.sum(), nbrs.size, m) < 2**31 else np.int64
        parent = np.repeat(np.arange(m, dtype=itype), count)
        cand = np.arange(parent.size, dtype=itype)      # positions in nbrs
        cand += np.repeat((start - np.cumsum(count) + count).astype(itype), count)
        cand = nbrs[cand]
        for k in range(dim - 1):
            keep = near[verts[parent, k], cand]
            parent = parent[keep]
            cand = cand[keep]
        total += parent.size
        if total > simplex_cap:
            raise ResourceCapError(
                f"filtration would exceed {simplex_cap} simplices at dim {dim}")
        verts, vals = np.column_stack((verts[parent], cand)), vals[parent]
        table = np.repeat(parent[:, None], dim + 1, axis=1)    # column dim: parent
        for k in range(dim):
            np.maximum(vals, D[verts[:, k], cand], out=vals)
            face = facets[parent, k].astype(np.int64) * n + cand
            table[:, k] = np.searchsorted(keys, face)
        facets, keys, last = table, parent.astype(np.int64) * n + cand, verts[:, -1]
        levels.append((verts, vals, facets))
    del near, keys, parent, cand
    blocks, tables, rank = [], [], np.zeros(1, np.int32)
    while levels:
        verts, vals, facets = levels.pop(0)
        order = np.argsort(vals, kind="stable")       # ties stay lexicographic
        blocks.append((verts[order], vals[order]))
        tables.append(rank[facets[order]])
        rank = np.empty(order.size, dtype=facets.dtype)
        rank[order] = np.arange(order.size, dtype=rank.dtype)
    return Filtration(tuple(blocks), tuple(tables), int(max_dim), float(t_max), n)


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


def _coboundary(facets, n_faces):
    """Anti-transpose of a boundary matrix as CSR: the transpose of its facet table.

    Column c is face n_faces-1-c and its rows are the cofaces j that hold
    it, as n_cofaces-1-j: both in reverse filtration order.
    """
    n_cofaces, width = facets.shape
    cols = np.subtract(n_faces - 1, facets.reshape(-1))   # face -> column c
    col_ptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n_faces))))
    col_rows = np.argsort(cols, kind="stable")            # entries by column
    col_rows //= width                                    # entry -> coface j
    return col_ptr, np.subtract(n_cofaces - 1, col_rows, out=col_rows)   # j -> row


def compute_barcodes(filtration):
    """Persistence pairs from cohomology, coboundaries reduced bottom-up with clearing.

    For d = 1..max_dim+1, the coboundaries of the (d-1)-simplices are
    reduced in reverse filtration order: the anti-transpose of the boundary
    matrix of the d-simplices.  Each pivot pairs a (d-1)-simplex birth (its
    column) with a d-simplex death (its row) (de Silva, Morozov,
    Vejdemo-Johansson, 2011), read off all pivots of a pass at once.  A
    (d-1)-simplex that the previous pass paired as a death has a zero
    reduced coboundary and is skipped (clearing), so top-dimension simplices
    are only ever rows.  A simplex that no pass pairs is an essential class.
    """
    vals = [v for _, v in filtration.blocks]
    paired = [np.zeros(v.size, dtype=bool) for v in vals]
    pairs = [[] for _ in range(filtration.max_dim + 1)]
    cleared = np.zeros(vals[0].size, dtype=bool)
    for d in range(1, len(vals)):
        n_faces, n_cofaces = vals[d - 1].size, vals[d].size
        col_ptr, col_rows = _coboundary(filtration.facets[d], n_faces)
        low = _kernels.reduce_columns(col_ptr, col_rows, cleared)
        del col_ptr, col_rows
        cols = np.flatnonzero(low >= 0)
        faces = n_faces - 1 - cols
        cofaces = n_cofaces - 1 - low[cols]
        pairs[d - 1].extend(zip(vals[d - 1][faces].tolist(), vals[d][cofaces].tolist()))
        paired[d - 1][faces] = True
        paired[d][cofaces] = True
        # the deaths, indexed as the next pass's columns
        cleared = np.zeros(n_cofaces, dtype=bool)
        cleared[low[cols]] = True
    for p, bars in enumerate(pairs):
        bars.extend((b, math.inf) for b in vals[p][~paired[p]].tolist())
    return Barcode(tuple(tuple(sorted(p)) for p in pairs))


# ---------------------------------------------------------------------------
# Lower-distance-matrix (LDM) text format: line i (i = 1..n-1) holds the
# comma-separated entries D[i, 0..i-1].  An entry with an integral value is
# written as an integer without a decimal point, any other entry as its
# Python repr (so "inf" for an infinite distance); parsing the text gives
# back the same doubles bit for bit.  The writer walks the lower triangle in
# blocks of whole rows of about LDM_BLOCK entries: each distinct value of a
# block is formatted once, and the rows are joined from that vocabulary, so
# a Hamming matrix with a few hundred distinct distances costs a few hundred
# formatting calls per block and memory stays one block whatever n is.  The
# reader parses with Python's float(), one line at a time.
# ---------------------------------------------------------------------------

#: entries per block of rows in export_lower_distance (at least one row)
LDM_BLOCK = 1 << 14


def _fmt(x):
    return str(int(x)) if x.is_integer() else repr(x)


def export_lower_distance(d, sink):
    """Write the lower triangle as CSV text; round-trips bit-exactly."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w") as fh:
            export_lower_distance(d, fh)
        return
    D = _as_matrix(d)
    n = D.shape[0]
    step = max(1, LDM_BLOCK // max(n, 1))
    for lo in range(1, n, step):
        hi = min(n, lo + step)
        # row lo + r of the block holds D[lo + r, :lo + r]
        entries = D[lo:hi, :hi][np.tri(hi - lo, hi, lo - 1, dtype=bool)]
        values, inverse = np.unique(entries, return_inverse=True)
        # -0.0 and 0.0 share a slot; both are written "0"
        words = np.array(list(map(_fmt, values.tolist())), dtype=object)
        words = words[inverse].tolist()
        ends = np.cumsum(np.arange(lo, hi)).tolist()
        sink.write("".join(
            ",".join(words[end - i:end]) + "\n"
            for i, end in zip(range(lo, hi), ends)
        ))


def read_lower_distance(source):
    """Parse lower-triangular CSV back into a DistanceMatrix."""
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source) as fh:
                return read_lower_distance(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise FormatError(f"cannot read distance file {source}: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"{source}: {exc}") from exc
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
