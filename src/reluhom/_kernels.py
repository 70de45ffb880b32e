"""Hot numeric kernels: the packed Hamming matrix and GF(2) column reduction.

There is one backend, plain numpy and Python; ``tests/test_kernels.py``
checks it exactly against independent oracles.  ``USING_NUMBA`` is always
``False``: it is kept only because the benchmark records it in its
environment report.
"""

import heapq

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
# Columns arrive as a CSR triple (col_ptr, col_rows) and are reduced left to
# right; a column's pivot is its largest row of odd multiplicity.  Returns
# the pivot row of each column (-1 when the column reduces to zero).
# Columns flagged in `skip` are known to reduce to zero (clearing) and are
# not touched.  The kernel stores a column only when reduced: a pivot column
# that no addition changed is re-read from its CSR slice when a later column
# needs it.

def _pop_odd(heap):
    """Pop the largest row of odd multiplicity off a negated heap, or -1."""
    while heap:
        v = heapq.heappop(heap)
        odd = True
        while heap and heap[0] == v:
            heapq.heappop(heap)
            odd = not odd
        if odd:
            return -v
    return -1


def reduce_columns(col_ptr, col_rows, skip):
    n_cols = len(col_ptr) - 1
    low = np.full(n_cols, -1, dtype=np.int64)
    ptr = col_ptr.tolist()
    owner = {}
    stored = {}      # reduced columns without their pivot, for changed columns
    for j in np.flatnonzero(~skip).tolist():
        heap = [-r for r in col_rows[ptr[j]:ptr[j + 1]].tolist()]
        heapq.heapify(heap)
        pivot = _pop_odd(heap)
        changed = False
        while pivot >= 0:
            k = owner.get(pivot)
            if k is None:
                break
            changed = True
            rest = stored.get(k)
            if rest is None:
                # unchanged column: its slice minus the (odd) pivot copies
                rest = [r for r in col_rows[ptr[k]:ptr[k + 1]].tolist() if r != pivot]
            for r in rest:
                heapq.heappush(heap, -r)
            pivot = _pop_odd(heap)
        if pivot < 0:
            continue
        low[j] = pivot
        owner[pivot] = j
        if changed:
            rest = []
            v = _pop_odd(heap)
            while v >= 0:
                rest.append(v)
                v = _pop_odd(heap)
            stored[j] = rest
    return low
