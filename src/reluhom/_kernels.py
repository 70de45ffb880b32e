"""Hot numeric kernels: the block budget, the packed Hamming matrix and GF(2)
column reduction.

Every loop that streams its temporaries in blocks cuts them with `blocks`
or `per_block`: the loop states how many bytes one item's largest temporary
takes, and the block holds at most BLOCK_BYTES of them, at least one item.

The Hamming matrix is one Gram product of the unpacked bits, using
|x xor y| = |x| + |y| - 2 x.y, computed inside its float64 output: the
float32 product takes the output's second half and the unpacked bits its
first, and rows convert to distances top down, so for k vectors the one
(k, k) array is the output and the rest is blocks.  The reduction walks
the live columns from last to first and takes a column's lowest row as its
pivot.  A column whose first pivot is free costs one
dict lookup; a column that needs additions is held in one reused boolean
working column, each addition is one xor of the added column's rows into
it, and the next pivot is the first set row at or after the current one,
so the search only moves forward; there is no heap, no row set and no
multiplicity count.  There is one backend, plain numpy and Python;
``tests/test_kernels.py`` checks it exactly against independent oracles.
``USING_NUMBA`` is always ``False``: it is kept only because the benchmark
records it in its environment report.
"""

import numpy as np

USING_NUMBA = False


# ---------------------------------------------------------------------------
# The block budget
# ---------------------------------------------------------------------------

# bytes of a block's largest temporary, for every streamed loop.  Each
# pivot step of an LP stack costs a fixed number of numpy calls whatever the
# stack's width (optimal LPs leave it before the ratio test), so wider
# stacks amortise them.  An LP stack holds one block of tableaus and
# refills a finished LP's slot from its batch: at this size the Chebyshev
# LPs of a 3-5-5 net's patterns run in stacks of 151 (864-byte condensed
# 12 x 9 tableaus) and their redundancy LPs in stacks of 212 (11 x 7).
# The budget also sizes brute force's prefix rounds, each as many bits as
# keep its candidates within one Chebyshev stack.  The tracemalloc test of
# the atlas's peak memory caps it: at 512 KiB the stacks' temporaries
# outgrow a 3-8-8 atlas.
BLOCK_BYTES = 128 * 1024


def per_block(item_bytes):
    """How many items of item_bytes fit in BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // max(1, item_bytes))


def blocks(count, item_bytes):
    """Slices cutting range(count) into runs of at most BLOCK_BYTES of items."""
    step = per_block(item_bytes)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


# ---------------------------------------------------------------------------
# Hamming distance over packed bytes
# ---------------------------------------------------------------------------

# bytes an unpacked block may take even beyond the output: without a floor,
# two vectors of a million bits would take 125,000 products of one byte each.
# The kernel's blocks follow its output, not BLOCK_BYTES: with a 128 KiB
# floor, 64 vectors of 100,000 bits peak at 6.0 times their 32 KiB output,
# above the 5 times its tracemalloc test allows.
_HAMMING_BLOCK_MIN = 1 << 16


def hamming_matrix_packed(packed):
    """Pairwise popcount(xor) for rows of a (k, w) uint8 array, as float64.

    |x xor y| = |x| + |y| - 2 x.y, with x.y and |x| = x.x read off one Gram
    product X @ X.T of the unpacked bits.  Its entries are integers no
    larger than the bit count: float32 holds them exactly below 2**24 bits,
    float64 above, and the terms are combined in float64, also exactly.
    Rows of zero width give the zero matrix.

    Only the (k, k) float64 output is allocated whole.  A float32 Gram
    product lives in the output's second half, and the unpacked bits in its
    first half while the product accumulates over blocks of bytes; an
    unpacked block is no larger than that half or _HAMMING_BLOCK_MIN bytes,
    whichever is larger, and is allocated apart only when the half cannot
    hold it.  (A float64 product takes the whole output.)  The rows then
    convert to distances a block at a time from the top down, each block's
    Gram rows copied out first: float64 row i spans the bytes of float32
    rows 2i - k and 2i - k + 1 of the second half, so the rows a block
    overwrites are its own or rows above it, already converted.
    """
    k, w = packed.shape
    out = np.empty((k, k))
    if 8 * w < 2**24:
        halves = out.reshape(-1).view(np.float32)
        free, gram = halves[:k * k], halves[k * k:].reshape(k, k)
    else:
        free, gram = out.reshape(-1)[:0], out
    size = gram.itemsize
    step = max(1, max(free.nbytes, _HAMMING_BLOCK_MIN) // (8 * size * max(k, 1)))  # bytes
    for lo in range(0, max(w, 1), step):
        cols = packed[:, lo:lo + step]
        bits = 8 * cols.shape[1]
        x = free[:k * bits] if k * bits <= free.size else np.empty(k * bits, gram.dtype)
        x = x.reshape(k, bits)
        # the order of the bits within a block does not change a dot product
        for rows in blocks(k, bits):
            x[rows] = np.unpackbits(cols[rows], axis=1)
        if lo == 0:
            np.matmul(x, x.T, out=gram)
        else:
            for rows in blocks(k, size * k):
                gram[rows] += x[rows] @ x.T
        del x
    pop = np.diagonal(gram).astype(np.float64)          # |x| = x.x
    for rows in blocks(k, size * k):
        g = gram[rows].copy()                           # out[rows] overwrites it
        np.multiply(g, -2.0, out=out[rows])
        out[rows] += pop[rows, None]
        out[rows] += pop
    return out


# ---------------------------------------------------------------------------
# Column reduction over GF(2)
# ---------------------------------------------------------------------------
#
# Columns are reduced right to left; a column's pivot is its lowest row.  A
# column is live when it is neither skipped nor empty.  Each live column
# starts from its first row, the lowest: a column whose pivot nobody owns
# costs one dict lookup.  A column whose pivot is owned is set into `dense`,
# a boolean working column over the rows with a sentinel past the last row,
# and each addition flips the owner's rows in it.  The owner's rows all lie
# at or after the pivot, which they cancel, so the next pivot is the first
# set row after it (the sentinel if the column is zero): the search only
# moves forward.  A column that ends with a pivot reads its rows off the
# window from the pivot to the largest row added and clears the window, so
# `dense` holds only the sentinel between columns.  Only columns that
# additions changed are stored; an unchanged pivot column is re-read from
# its slice.  `low` is read off the owner map once, at the end.

def reduce_columns(col_ptr, col_rows, skip):
    """Pivot row of each CSR column after reduction, or -1 for a zero column.

    Rows within a column must be distinct and ascending.  Columns flagged
    in `skip` are known to reduce to zero (clearing) and are not touched.
    """
    counts = np.diff(col_ptr)
    cols = np.flatnonzero(~skip & (counts > 0))[::-1]
    ptr = col_ptr.tolist()
    n_rows = int(col_rows.max(initial=-1)) + 1
    dense = np.zeros(n_rows + 1, dtype=bool)
    dense[n_rows] = True
    owner = dict()   # pivot row -> its column; a call, which tests patch
    reduced = {}     # rows of the columns that additions changed
    for j, pivot in zip(cols.tolist(), col_rows[col_ptr[cols]].tolist()):
        k = owner.get(pivot)
        if k is not None:
            rows = col_rows[ptr[j]:ptr[j + 1]]
            dense[rows] = True
            top = rows[-1]
            while k is not None:
                rows = reduced.get(k)
                if rows is None:
                    rows = col_rows[ptr[k]:ptr[k + 1]]
                dense[rows] ^= True
                top = max(top, rows[-1])
                pivot += int(dense[pivot:].argmax())
                k = owner.get(pivot)
            if pivot == n_rows:
                continue
            window = dense[pivot:top + 1]
            reduced[j] = pivot + window.nonzero()[0]
            window[:] = False
        owner[pivot] = j
    low = np.full(counts.size, -1, dtype=np.int64)
    low[np.fromiter(owner.values(), np.int64, len(owner))] = np.fromiter(
        owner.keys(), np.int64, len(owner))
    return low
