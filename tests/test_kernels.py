"""The hot kernels must agree exactly with the independent oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from reluhom import _kernels, metric, persistence
from reluhom.network import BitVector
from oracles import naive_barcodes, pivot_lookups


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

    The test mirrors each problem for the kernel and sorts each mirrored
    column, since the kernel takes a column's rows ascending.

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
# column 1's largest row is also in column 0, which is skipped: in the
# kernel's mirror image a skipped column right of it holds its lowest row,
# and its pivot is still that row
@example((3, [[2], [2, 0], [1]], [True, False, False]))
@given(csr_problems())
def test_reduce_columns_matches_dense_reduction(problem):
    n_rows, columns, skip = problem
    # the kernel reduces right to left to the lowest row: it gets the mirror
    # image of the problem (columns reversed, row r -> n_rows - 1 - r), whose
    # pivots map back to the oracle's left-to-right, largest-row ones
    mirrored = [sorted(n_rows - 1 - r for r in c) for c in reversed(columns)]
    col_ptr = np.cumsum([0] + [len(c) for c in mirrored]).astype(np.int64)
    col_rows = np.array([r for c in mirrored for r in c], dtype=np.int64)
    # adding a reduced column cancels the pivot and adds only higher rows;
    # adding a changed column's original slice can leave the pivot where it
    # was, and a wrong addition can cycle forever: the owner lookups fail then
    owner_type, calls = pivot_lookups()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "dict", owner_type, raising=False)
        got = _kernels.reduce_columns(
            col_ptr, col_rows, np.array(skip[::-1], dtype=bool))
    assert len(calls) == 1                     # the lookups were recorded
    got = [p if p < 0 else n_rows - 1 - p for p in reversed(got.tolist())]
    # a skipped column is one known to reduce to zero: the oracle sees it empty
    kept = [[] if s else c for c, s in zip(columns, skip)]
    assert got == dense_lows(kept, n_rows)


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


def test_hamming_kernel_memory_is_the_output():
    """k = 64 vectors of 100,000 bits: the Gram product is accumulated a
    block of words at a time, so the peak is a few times the 32 KiB output,
    not the 25 MB of all bits unpacked (nor the 0.8 MB of a row of xors)."""
    rng = np.random.default_rng(17)
    words = rng.integers(0, 2**63, (64, -(-100_000 // 64)), dtype=np.uint64)
    tracemalloc.start()
    try:
        got = _kernels.hamming_matrix_packed(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 391 blocks of 4 words each add up exactly
    want = [np.bitwise_count(words ^ row).sum(axis=1) for row in words]
    assert np.array_equal(got, want)
    assert peak <= 5 * got.nbytes, f"peak {peak / got.nbytes:.2f} times the output"


def test_hamming_kernel_is_exact_past_float32():
    """2**24 + 64 bits: a popcount of 2**24 + 63 is odd and above 2**24,
    where float32 holds only even integers, so the Gram product must run
    in float64."""
    w = 2**18 + 1
    words = np.zeros((3, w), dtype=np.uint64)
    words[0] = np.uint64(2**64 - 1)
    words[0, 0] = np.uint64(2**64 - 2)
    words[2] = np.random.default_rng(19).integers(0, 2**63, w, dtype=np.uint64)
    want = [np.bitwise_count(words ^ row).sum(axis=1) for row in words]
    assert want[0][1] == 2**24 + 63
    assert np.array_equal(_kernels.hamming_matrix_packed(words), want)
