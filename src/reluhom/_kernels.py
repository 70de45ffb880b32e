"""Hot numeric kernels: the block budget, the packed Hamming matrix and GF(2)
column reduction.

Every loop that streams its temporaries in blocks cuts them with `blocks`
or `per_block`: the loop states how many bytes one item's largest temporary
takes, and the block holds at most BLOCK_BYTES of them, at least one item.

The Hamming matrix is one Gram product of the unpacked bits, using
|x xor y| = |x| + |y| - 2 x.y; its memory is O(k^2) for k vectors.  The
reduction walks the columns from last to first and takes a column's
lowest row as its pivot.  It first finds the apparent pairs by array
operations (Bauer, "Ripser", JACT 2021, arXiv:1908.02518): a column whose
lowest row lies in no live column to its right has that row as pivot with
no addition.  Its Python loop visits only the other columns.  A column
whose first pivot is free costs one dict lookup; a column that needs
additions is held in one reused boolean working column, each addition is
one xor of the added column's rows into it, and the next pivot is the
first set row at or after the current one, so the search only moves
forward; there is no heap, no row set and no multiplicity count.  There
is one backend, plain numpy and Python; ``tests/test_kernels.py`` checks
it exactly against independent oracles.
``USING_NUMBA`` is always ``False``: it is kept only because the benchmark
records it in its environment report.
"""

import numpy as np

USING_NUMBA = False


# ---------------------------------------------------------------------------
# The block budget
# ---------------------------------------------------------------------------

# bytes of a block's largest temporary, for every streamed loop.  Each LP
# pivot costs a fixed number of numpy calls whatever the stack's width, so
# wider stacks amortise them: at this size a traversal wave of a 3-5-5 net
# (1,920-byte tableaus, 68 per stack) is one stack.  The tracemalloc test of
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
# Hamming distance over packed 64-bit words
# ---------------------------------------------------------------------------

# bytes an unpacked block may take even beyond the output: without a floor,
# two vectors of a million bits would take 15,625 products of one word each.
# The kernel's blocks follow its output, not BLOCK_BYTES: with a 128 KiB
# floor, 64 vectors of 100,000 bits peak at 6.0 times their 32 KiB output,
# above the 5 times its tracemalloc test allows.
_HAMMING_BLOCK_MIN = 1 << 16


def hamming_matrix_packed(words):
    """Pairwise popcount(xor) for rows of a (k, w) uint64 array, as float64.

    |x xor y| = |x| + |y| - 2 x.y, with x.y and |x| = x.x read off one Gram
    product X @ X.T of the unpacked bits.  The product is accumulated over
    blocks of words, so an unpacked block is no larger than the (k, k)
    output or _HAMMING_BLOCK_MIN bytes, whichever is larger.  Its entries
    are integers no larger than the bit count: float32 holds them exactly
    below 2**24 bits, float64 above.  The terms are combined in float64,
    also exactly.
    """
    k, w = words.shape
    dtype = np.float32 if 64 * w < 2**24 else np.float64
    block_bytes = max(8 * k * k, _HAMMING_BLOCK_MIN)
    step = max(1, block_bytes // (64 * np.dtype(dtype).itemsize * max(k, 1)))  # words
    gram = None
    for lo in range(0, max(w, 1), step):
        # the order of the bits within a block does not change a dot product
        x = np.unpackbits(words[:, lo:lo + step].view(np.uint8), axis=1).astype(dtype)
        block = x @ x.T
        del x
        if gram is None:
            gram = block
        else:
            gram += block
    pop = np.diagonal(gram).astype(np.float64)          # |x| = x.x
    out = np.multiply(gram, -2.0, dtype=np.float64)
    del gram
    out += pop[:, None]
    out += pop
    return out


# ---------------------------------------------------------------------------
# Column reduction over GF(2)
# ---------------------------------------------------------------------------
#
# Columns are reduced right to left; a column's pivot is its lowest row.  A
# column is live when it is neither skipped nor empty.  Apparent pairs come
# first, by array operations (Bauer, "Ripser", JACT 2021, arXiv:1908.02518):
# a live column f whose lowest row r lies in no live column to its right has
# pivot r with no addition, since a reduced column k > f is a sum of live
# columns >= k.  Their pivots seed `low` and `owner` before the loop; a column
# never looks up an apparent column to its left (no column right of it holds
# that row), so the seeding changes no pivot.  The loop visits the other live
# columns, each starting from its lowest row as found above: a column whose
# pivot nobody owns costs one dict lookup.  A column whose pivot is owned is
# set into `dense`, a boolean working column over the rows with a sentinel
# past the last row, and each addition flips the owner's rows in it.  The
# owner's rows all lie at or after the pivot, which they cancel, so the next
# pivot is the first set row after it (the sentinel if the column is zero):
# the search only moves forward.  A column that ends with a pivot reads its
# rows off the window from the pivot to the largest row added and clears the
# window, so `dense` holds only the sentinel between columns.  Only columns
# that additions changed are stored; an unchanged pivot column is re-read
# from its slice.

def reduce_columns(col_ptr, col_rows, skip):
    """Pivot row of each CSR column after reduction, or -1 for a zero column.

    Rows within a column must be distinct and ascending.  Columns flagged
    in `skip` are known to reduce to zero (clearing) and are not touched.
    """
    counts = np.diff(col_ptr)
    low = np.full(counts.size, -1, dtype=np.int64)
    nonempty = counts > 0
    live = ~skip & nonempty
    if not live.any():
        return low
    # each live column's lowest row, and each row's last live column
    cols = np.flatnonzero(live)
    lowest = np.minimum.reduceat(col_rows, col_ptr[:-1][nonempty])[live[nonempty]]
    entry_col = np.repeat(np.arange(counts.size), counts)
    held = live[entry_col]
    last = np.full(int(col_rows.max()) + 1, -1, dtype=np.int64)
    np.maximum.at(last, col_rows[held], entry_col[held])
    apparent = last[lowest] == cols
    low[cols[apparent]] = lowest[apparent]
    owner = dict(zip(lowest[apparent].tolist(), cols[apparent].tolist()))
    ptr = col_ptr.tolist()
    n_rows = last.size
    dense = np.zeros(n_rows + 1, dtype=bool)
    dense[n_rows] = True
    reduced = {}     # rows of the columns that additions changed
    rest = ~apparent
    for j, pivot in zip(cols[rest][::-1].tolist(), lowest[rest][::-1].tolist()):
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
        low[j] = pivot
        owner[pivot] = j
    return low
