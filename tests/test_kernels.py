"""The hot kernels must agree exactly with the independent oracles."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from reluhom import _kernels, metric, persistence
from reluhom.network import BitVector
from oracles import naive_barcodes


def test_backend_flag_reported():
    assert isinstance(_kernels.USING_NUMBA, bool)


def test_backends_agree_bit_for_bit():
    rng = np.random.default_rng(7)
    raw = [rng.choice(["0", "1"], 150) for _ in range(25)]
    vs = [BitVector.from01("".join(r)) for r in raw]
    a = np.array(raw) == "1"
    want = (a[:, None] != a[None]).sum(axis=2)
    assert np.array_equal(metric.hamming_matrix(vs).data, want)

    pts = rng.standard_normal((12, 3))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    np.fill_diagonal(d, 0.0)
    bc = persistence.compute_barcodes(persistence.build_filtration(d, max_dim=2))
    oracle = naive_barcodes(d, 2)
    for q in range(3):
        assert sorted(bc.intervals(q, include_zero_length=True)) == oracle[q]


def test_hamming_kernel_matches_reference():
    rng = np.random.default_rng(13)
    for n_bits in (1, 63, 64, 65, 200):
        raw = rng.integers(0, 2, size=(10, n_bits)).astype(np.uint8)
        words = int(np.ceil(n_bits / 64))
        packed = np.zeros((10, words), dtype=np.uint64)
        for i in range(10):
            padded = np.zeros(words * 64, dtype=np.uint8)
            padded[:n_bits] = raw[i]
            packed[i] = np.packbits(padded, bitorder="little").view(np.uint64)
        got = _kernels.hamming_matrix_packed(packed)
        want = (raw[:, None, :] != raw[None, :, :]).sum(axis=2)
        assert np.array_equal(got, want)


def dense_lows(columns, n_rows):
    """Pivot rows of a left-to-right GF(2) reduction of a dense matrix."""
    m = np.zeros((n_rows, len(columns)), dtype=bool)
    for j, rows in enumerate(columns):
        for r in rows:
            m[r, j] ^= True
    owner = {}
    lows = []
    for j in range(m.shape[1]):
        piv = -1
        while m[:, j].any():
            piv = int(np.flatnonzero(m[:, j])[-1])
            if piv not in owner:
                owner[piv] = j
                break
            m[:, j] ^= m[:, owner[piv]]
            piv = -1
        lows.append(piv)
    return lows


@st.composite
def csr_problems(draw):
    """Random small CSR matrices, rows distinct within a column, with skip flags.

    Columns are dense enough that a column changed by additions is often
    added into a later one, and its reduced pivot is often not in its slice.
    """
    n_rows = draw(st.integers(2, 8))
    columns = draw(
        st.lists(
            st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=5, unique=True),
            min_size=4,
            max_size=16,
        )
    )
    skipped = draw(st.sets(st.integers(0, len(columns) - 1), max_size=2))
    return n_rows, columns, [j in skipped for j in range(len(columns))]


# column 1 reduces to pivot 1, a row its slice does not hold; column 2 needs
# that reduced column, not column 1's slice
@example((4, [[3, 1], [3, 0], [1]], [False, False, False]))
@given(csr_problems())
def test_reduce_columns_matches_dense_reduction(problem):
    n_rows, columns, skip = problem
    col_ptr = np.cumsum([0] + [len(c) for c in columns]).astype(np.int64)
    col_rows = np.array([r for c in columns for r in c], dtype=np.int64)
    pivots = []

    def checked_max(col, **kwargs):
        # adding a reduced column cancels the pivot and adds only lower rows;
        # adding a changed column's original slice can raise the pivot, and a
        # wrong addition can cycle forever: fail instead of hanging
        pivot = max(col, **kwargs)
        if not isinstance(col, list):          # after an addition
            assert pivot < pivots[-1], "an addition did not lower the pivot"
        pivots.append(pivot)
        assert len(pivots) < 100_000, "reduction does not terminate"
        return pivot

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "max", checked_max, raising=False)
        got = _kernels.reduce_columns(col_ptr, col_rows, np.array(skip, dtype=bool))
    # a skipped column is one known to reduce to zero: the oracle sees it empty
    kept = [[] if s else c for c, s in zip(columns, skip)]
    assert got.tolist() == dense_lows(kept, n_rows)


@st.composite
def bit_matrices(draw):
    n_bits = draw(st.integers(1, 200))
    k = draw(st.integers(1, 8))
    return draw(arrays(np.bool_, (k, n_bits)))


@given(bit_matrices())
def test_hamming_kernel_matches_unpacked_count(a):
    k, n_bits = a.shape
    words = -(-n_bits // 64)
    padded = np.zeros((k, words * 64), dtype=np.uint8)
    padded[:, :n_bits] = a
    packed = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
    want = (a[:, None] != a[None]).sum(axis=2)
    assert np.array_equal(_kernels.hamming_matrix_packed(packed), want)
