"""Vietoris-Rips persistence over a distance matrix.

Threshold graphs are turned into their clique complex, each simplex
recording its facets as it is made, simplices enter at their diameter, and
persistence over the two-element field is read off from cohomology: the
coboundaries, transposes of the facet tables indexed in filtration order,
are reduced with clearing (the naive homology oracle in the test suite
pins correctness).
Intervals follow the [birth, death) convention.
"""

import io
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

    ResourceCapError is raised once more than simplex_cap simplices would
    be made, before the dimension that passes the cap is built: when its
    candidates could pass the cap, its survivors are first counted over
    blocks of parents, so memory stays about one block of candidates.
    """
    if max_dim < 0:
        raise FormatError("max_dim must be >= 0")
    D = _as_matrix(d)
    n = D.shape[0]
    if t_max is None:
        t_max = float(np.max(D, where=np.isfinite(D), initial=0.0))
    if math.isnan(t_max):
        raise FormatError("t_max is NaN")
    if t_max < 0:
        raise FormatError(f"t_max {t_max:g} is negative")
    near = D <= t_max
    # CSR lists: row 0 holds every vertex, row v + 1 the neighbours of v above v
    lo, hi = np.nonzero(near)
    above = lo < hi
    lo, hi = lo[above], hi[above]
    del above
    ptr = np.concatenate(([0, n], n + np.cumsum(np.bincount(lo, minlength=n))))
    nbrs = np.concatenate((np.arange(n), hi)).astype(np.int32)
    del lo, hi
    verts, vals, last = np.empty((1, 0), np.int32), np.zeros(1), np.array([-1])
    levels, total, facets, keys = [], 0, None, None    # the empty simplex: no facets
    for dim in range(max_dim + 2):
        m = verts.shape[0]
        count = ptr[last + 2] - ptr[last + 1]
        itype = np.int32 if max(count.sum(), nbrs.size, m) < 2**31 else np.int64

        def cofaces(rows):
            """The (parent, vertex) pairs of the cofaces of parents rows."""
            start, size = ptr[last[rows] + 1], count[rows]
            parent = np.repeat(np.arange(rows.start, rows.stop, dtype=itype), size)
            cand = np.arange(parent.size, dtype=itype)      # positions in nbrs
            cand += np.repeat((start - np.cumsum(size) + size).astype(itype), size)
            cand = nbrs[cand]
            for k in range(dim - 1):
                keep = near[verts[parent, k], cand]
                parent = parent[keep]
                cand = cand[keep]
            return parent, cand

        runs = [slice(0, m)]
        if total + count.sum() > simplex_cap:
            # the candidates could pass the cap: count the survivors over
            # blocks of parents of about one block of candidates each (16
            # bytes a candidate: parent, vertex and their gathers), and
            # build them only when the count fits
            runs = _parent_blocks(count, _kernels.per_block(16))
            found = total
            for rows in runs:
                found += cofaces(rows)[0].size
                if found > simplex_cap:
                    raise ResourceCapError(
                        f"filtration would exceed {simplex_cap} simplices at dim {dim}")
        parts = [cofaces(rows) for rows in runs]
        parent, cand = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        del parts
        total += parent.size
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


def _parent_blocks(count, step):
    """Slices of parents, in order, each of about `step` candidates: a
    parent's count of candidates is count[parent]."""
    ends = np.cumsum(count)
    cuts = np.searchsorted(ends, np.arange(step, ends[-1], step), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [count.size]))).tolist()
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class Barcode:
    """Per-dimension multisets of (birth, death) intervals.

    Zero-length intervals are kept internally; `intervals` drops them by
    default.  Infinite deaths are math.inf.
    """

    pairs: tuple    # tuple over dims of tuples of (birth, death)

    def intervals(self, dim, include_zero_length=False):
        if not 0 <= dim < len(self.pairs):
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
    """Coboundary matrix as CSR: the transpose of the facet table.

    Column f lists the cofaces j whose facet row holds face f, in
    filtration order: distinct and ascending, as the reduction needs them.
    The faces are sorted in the narrowest unsigned type that holds them: a
    stable sort of 8- or 16-bit keys is numpy's radix sort, the same
    permutation as on wider keys.
    """
    faces = facets.reshape(-1)
    col_ptr = np.concatenate(([0], np.cumsum(np.bincount(faces, minlength=n_faces))))
    keys = faces.astype(np.min_scalar_type(n_faces))
    col_rows = np.argsort(keys, kind="stable")            # entries by column
    col_rows //= facets.shape[1]                          # entry -> coface j
    return col_ptr, col_rows


def compute_barcodes(filtration):
    """Persistence pairs from cohomology, coboundaries reduced with clearing.

    For d = 1..max_dim+1, the coboundary matrix of the (d-1)-simplices is
    reduced from its last column to its first, each column's pivot being its
    lowest row.  Each pivot pairs a (d-1)-simplex birth (its column) with a
    d-simplex death (its row) (de Silva, Morozov, Vejdemo-Johansson, 2011),
    read off all pivots of a pass at once.  A (d-1)-simplex that the
    previous pass paired as a death has a zero reduced coboundary and is
    skipped (clearing), so top-dimension simplices are only ever rows.  A
    simplex that no pass pairs is an essential class.

    A coboundary matrix is the facet table transposed by one stable sort
    of its face indices in their narrowest unsigned type (a radix sort up
    to 65,536 faces).  The reduction's loop visits each live column once: a
    column whose first pivot is free costs one dict lookup, and a column
    that needs additions is flipped into one reused boolean working column
    whose pivot search only moves forward.
    """
    vals = [v for _, v in filtration.blocks]
    paired = [np.zeros(v.size, dtype=bool) for v in vals]
    pairs = [[] for _ in range(filtration.max_dim + 1)]
    for d in range(1, len(vals)):
        col_ptr, col_rows = _coboundary(filtration.facets[d], vals[d - 1].size)
        # paired[d - 1] holds exactly the previous pass's deaths here
        low = _kernels.reduce_columns(col_ptr, col_rows, paired[d - 1])
        del col_ptr, col_rows
        faces = np.flatnonzero(low >= 0)
        cofaces = low[faces]
        pairs[d - 1].extend(zip(vals[d - 1][faces].tolist(), vals[d][cofaces].tolist()))
        paired[d - 1][faces] = True
        paired[d][cofaces] = True
    for p, bars in enumerate(pairs):
        bars.extend((b, math.inf) for b in vals[p][~paired[p]].tolist())
    return Barcode(tuple(tuple(sorted(p)) for p in pairs))


# ---------------------------------------------------------------------------
# Lower-distance-matrix (LDM) text format: line i (i = 1..n-1) holds the
# comma-separated entries D[i, 0..i-1].  An entry with an integral value is
# written as an integer without a decimal point, any other entry as its
# Python repr (so "inf" for an infinite distance); parsing the text gives
# back the same doubles bit for bit.  The writer walks the lower triangle in
# blocks of whole rows, as many as _kernels.BLOCK_BYTES holds at 8 bytes per
# entry of a full row (21 rows at n = 778), so memory stays one block
# whatever n is.  A block whose entries are all integers of at most
# _MAX_DIGITS digits (every block of a Hamming matrix) is written by array
# operations: its entries become the rows of a byte matrix, one column per
# digit position, right-aligned by integer division, then a comma or a
# newline; leading zeros are NUL bytes, which one bytes.translate deletes.
# Any other block is written from a vocabulary: each distinct value is
# formatted once, and the rows are joined from those words.
# The reader of a file reads it a block of rows at a time, in the writer's
# blocks, and never holds its whole text.  A text of plain digit entries of
# at most _MAX_DIGITS digits (every Hamming LDM) is parsed by array
# operations: n is read off the last line's commas before anything else,
# and the matrix is allocated only when the file is long enough to hold
# its n (n - 1) / 2 entries of two bytes or more.  Then a block's token
# ends are its bytes that are not digits, each line's last token must be
# its newline, and the values are summed digit position by digit position,
# from the highest, exactly, since 10**15 < 2**53.  Any other text (a
# non-integral or infinite entry, CRLF line ends, blank lines, spaces, a
# malformed row) goes to the line reader, which parses with Python's
# float(), one line at a time, and names the line of an error.
# ---------------------------------------------------------------------------

#: digits of the longest entry the digit writer and the byte parser take:
#: 10**15 - 1 < 2**53
_MAX_DIGITS = 15


def _fmt(x):
    return str(int(x)) if x.is_integer() else repr(x)


def _digit_text(entries, ends):
    """The text of a block's entries, its rows ending at `ends`, when they
    are all integers below 10**_MAX_DIGITS; else None."""
    top = entries.max()
    if not top < 10 ** _MAX_DIGITS:
        return None
    q = entries.astype(np.min_scalar_type(int(top)))     # -0.0 becomes 0
    if not np.array_equal(q, entries):
        return None
    width = len(str(int(top)))
    text = np.empty((q.size, width + 1), np.uint8)
    text[:, width] = ord(",")
    text[ends - 1, width] = ord("\n")
    for p in range(width - 1, -1, -1):          # from the last digit back
        r = q // 10
        lead = q > 0                            # False where a leading zero goes
        q -= r * 10
        q += ord("0")
        if p < width - 1:
            q *= lead
        text[:, p] = q
        q = r
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _word_text(entries, ends):
    """The text of a block's entries, its rows ending at `ends`, joined
    from the words of its distinct values."""
    values, inverse = np.unique(entries, return_inverse=True)
    # -0.0 and 0.0 share a slot; both are written "0"
    words = np.array(list(map(_fmt, values.tolist())), dtype=object)
    words = words[inverse].tolist()
    ends = ends.tolist()
    return "".join(",".join(words[lo:hi]) + "\n" for lo, hi in zip([0] + ends, ends))


def export_lower_distance(d, sink):
    """Write the lower triangle as CSV text; round-trips bit-exactly."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w") as fh:
            export_lower_distance(d, fh)
        return
    D = _as_matrix(d)
    n = D.shape[0]
    step = _kernels.per_block(8 * n)
    for lo in range(1, n, step):
        hi = min(n, lo + step)
        # row lo + r of the block holds D[lo + r, :lo + r]
        entries = D[lo:hi, :hi][np.tri(hi - lo, hi, lo - 1, dtype=bool)]
        ends = np.cumsum(np.arange(lo, hi))             # one past each row's last entry
        text = _digit_text(entries, ends)
        sink.write(_word_text(entries, ends) if text is None else text)


def read_lower_distance(source):
    """Parse lower-triangular CSV, from a path or a text stream, into a DistanceMatrix."""
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "rb") as fh:
                d = _read_digits(fh)
            if d is None:
                with open(source) as fh:
                    d = _read_lines(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise FormatError(f"cannot read distance file {source}: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"{source}: {exc}") from exc
        return d
    text = source.read()
    # a non-ASCII character becomes "?", which sends the text to the line reader
    d = _read_digits(text.encode("ascii", "replace"))
    return _read_lines(io.StringIO(text)) if d is None else d


def _read_digits(data):
    """The DistanceMatrix of an LDM of plain digit entries, or None.

    `data` is the LDM's bytes or a seekable binary file of them, which is
    read a block of rows at a time.  None unless the text is only digits,
    commas and newlines, ends in a newline, and holds rows of the right
    lengths of non-empty entries of at most _MAX_DIGITS digits; the line
    reader decides every other text.
    """
    fh = io.BytesIO(data) if isinstance(data, bytes) else data
    end = fh.seek(0, os.SEEK_END)
    fh.seek(max(end - 1, 0))
    if fh.read(1) != b"\n":
        return None
    n = _last_line_commas(fh, end) + 2      # the last line holds n - 1 entries
    # every entry takes two bytes or more, a digit and its comma or newline:
    # checked before the n x n allocation, which a file of many short lines
    # or one long last line would make huge
    if n * (n - 1) > end:
        return None
    D = np.zeros((n, n))
    fh.seek(0)
    step = _kernels.per_block(8 * n)
    for lo in range(1, n, step):
        hi = min(n, lo + step)
        values = _digit_values(b"".join([fh.readline() for _ in range(lo, hi)]), lo, hi)
        if values is None:
            return None
        D[lo:hi, :hi][np.tri(hi - lo, hi, lo - 1, dtype=bool)] = values
        del values                                  # before the next block is parsed
        # the upper triangle: the rectangle left of the block, transposed,
        # and the block's own corner, whose upper half is still zero
        D[:lo, lo:hi] = D[lo:hi, :lo].T
        D[lo:hi, lo:hi] += D[lo:hi, lo:hi].T
    if fh.tell() != end:
        return None
    return DistanceMatrix(D)


def _last_line_commas(fh, end):
    """Commas on the last line of a file of `end` bytes ending in a newline,
    read back from the end a block at a time."""
    commas, hi = 0, end - 1
    while hi:
        lo = max(0, hi - _kernels.BLOCK_BYTES)
        fh.seek(lo)
        chunk = fh.read(hi - lo)
        cut = chunk.rfind(b"\n") + 1
        commas += chunk.count(b",", cut)
        hi = 0 if cut else lo
    return commas


def _digit_values(block, lo, hi):
    """The entries of LDM lines lo..hi-1, in order, from their bytes; None
    unless every line holds its count of plain digit entries."""
    if block.translate(None, b"0123456789,\n"):
        return None
    buf = np.frombuffer(block, np.uint8)
    # line i holds D[i, :i], so its entries end at these tokens
    last = np.cumsum(np.arange(lo, hi)) - 1
    ends = np.flatnonzero(buf < 48)                     # commas and newlines
    if ends.size != last[-1] + 1 or np.any(buf[ends[last]] != 10):
        return None
    width = ends.copy()                                 # digits per entry
    width[1:] -= ends[:-1]
    width[1:] -= 1
    top = int(width.max())
    if width.min() < 1 or top > _MAX_DIGITS:
        return None
    width = width.astype(np.uint8)
    ends -= top + 1     # one before each entry's digit top - 1, or a masked byte
    values = np.zeros(ends.size)
    for p in range(top - 1, -1, -1):
        ends += 1
        digit = buf.take(ends, mode="clip")
        digit -= 48
        digit[width <= p] = 0
        values *= 10.0
        values += digit
    return values


def _read_lines(lines):
    """Parse LDM text one line at a time with float(), naming the line of an error."""
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        # float() would also take "1_0" and non-ASCII digits such as "\u0661"
        if "_" in line or not line.isascii():
            raise FormatError(f"line {lineno}: '_' or a non-ASCII character in {line!r}")
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
