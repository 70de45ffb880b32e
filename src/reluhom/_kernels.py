"""Hot numeric kernels: the packed Hamming matrix and GF(2) column reduction.

The reduction walks the columns from last to first and takes a column's
lowest row as its pivot.  It holds a column as a plain list of distinct
rows, and as a Python set of rows once additions start; there is no heap
and no multiplicity count.  There is one backend, plain numpy and Python;
``tests/test_kernels.py`` checks it exactly against independent oracles.
``USING_NUMBA`` is always ``False``: it is kept only because the benchmark
records it in its environment report.
"""

import numpy as np

USING_NUMBA = False


# ---------------------------------------------------------------------------
# Hamming distance over packed 64-bit words
# ---------------------------------------------------------------------------

def hamming_matrix_packed(words):
    """Pairwise popcount(xor) for rows of a (k, w) uint64 array.

    One row of the upper triangle at a time, so no (k, k, w) temporary.
    """
    k = words.shape[0]
    out = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        row = np.bitwise_count(words[i + 1:] ^ words[i]).sum(axis=1)
        out[i, i + 1:] = row
        out[i + 1:, i] = row
    return out


# ---------------------------------------------------------------------------
# Column reduction over GF(2)
# ---------------------------------------------------------------------------
#
# Columns are reduced right to left; a column's pivot is its lowest row.  A
# column is a plain list until its pivot is already owned, then a row set:
# each addition is one set xor and a fresh min.  Only columns that additions
# changed are stored; an unchanged pivot column is re-read from its slice.

def reduce_columns(col_ptr, col_rows, skip):
    """Pivot row of each CSR column after reduction, or -1 for a zero column.

    Rows within a column must be distinct.  Columns flagged in `skip` are
    known to reduce to zero (clearing) and are not touched.
    """
    low = np.full(len(col_ptr) - 1, -1, dtype=np.int64)
    ptr = col_ptr.tolist()
    owner = {}
    reduced = {}     # row sets of the columns that additions changed
    for j in np.flatnonzero(~skip)[::-1].tolist():
        col = col_rows[ptr[j]:ptr[j + 1]].tolist()
        pivot = min(col, default=-1)
        k = owner.get(pivot)
        if k is not None:
            col = set(col)
            while k is not None:
                col ^= reduced.get(k) or set(col_rows[ptr[k]:ptr[k + 1]].tolist())
                pivot = min(col, default=-1)
                k = owner.get(pivot)
            reduced[j] = col
        if pivot >= 0:
            low[j] = pivot
            owner[pivot] = j
    return low
