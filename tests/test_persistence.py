import hashlib
import io
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from reluhom import _kernels, persistence, sampling
from reluhom.metric import DistanceMatrix
from reluhom.errors import FormatError, NonFiniteEntry, ResourceCapError
from oracles import (
    filtration_simplices,
    ldm_text,
    ldm_vocabulary_text,
    mst_weights,
    n_components,
    naive_barcodes,
    pivot_lookups,
)


def bars(bc, dim, include_zero=False):
    return bc.intervals(dim, include_zero_length=include_zero)


def circle_points(n, r=1.0):
    t = np.linspace(0, 2 * math.pi, n, endpoint=False)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


def euclidean_matrix(pts):
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d, 0.0)
    return d


FOUR_CYCLE = np.array(
    [
        [0.0, 1.0, 2.0, 1.0],
        [1.0, 0.0, 1.0, 2.0],
        [2.0, 1.0, 0.0, 1.0],
        [1.0, 2.0, 1.0, 0.0],
    ]
)


class TestFiltration:
    def test_four_cycle_counts(self):
        f = persistence.build_filtration(FOUR_CYCLE, max_dim=1)
        sims = filtration_simplices(f)
        by_dim = {}
        for verts, val in sims:
            by_dim.setdefault(len(verts) - 1, []).append(val)
        assert len(by_dim[0]) == 4 and all(v == 0 for v in by_dim[0])
        assert sorted(by_dim[1]) == [1, 1, 1, 1, 2, 2]

    def test_ordering_value_then_dim(self):
        f = persistence.build_filtration(FOUR_CYCLE, max_dim=2)
        sims = filtration_simplices(f)
        keys = [(val, len(verts) - 1, tuple(verts)) for verts, val in sims]
        assert keys == sorted(keys)

    def test_faces_enter_no_later(self):
        from itertools import combinations

        rng = np.random.default_rng(51)
        d = euclidean_matrix(rng.standard_normal((10, 3)))
        f = persistence.build_filtration(d, max_dim=2)
        when = {tuple(v): val for v, val in filtration_simplices(f)}
        for verts, val in filtration_simplices(f):
            if len(verts) > 1:
                for face in combinations(verts, len(verts) - 1):
                    assert when[face] <= val

    def test_value_is_diameter(self):
        rng = np.random.default_rng(53)
        d = euclidean_matrix(rng.standard_normal((8, 2)))
        f = persistence.build_filtration(d, max_dim=2)
        for verts, val in filtration_simplices(f):
            if len(verts) >= 2:
                want = max(d[a, b] for a in verts for b in verts)
                assert val == pytest.approx(want)

    def test_t_max_cuts_long_edges(self):
        f = persistence.build_filtration(FOUR_CYCLE, max_dim=1, t_max=1.5)
        vals = [val for verts, val in filtration_simplices(f) if len(verts) == 2]
        assert sorted(vals) == [1, 1, 1, 1]

    def test_simplex_cap(self):
        d = euclidean_matrix(np.random.default_rng(0).standard_normal((20, 2)))
        with pytest.raises(ResourceCapError):
            persistence.build_filtration(d, max_dim=3, simplex_cap=50)

    def test_simplex_cap_fires_before_the_block_is_built(self):
        # 44,850 edges, then 4,455,100 triangle candidates that all pass
        d = DistanceMatrix(euclidean_matrix(
            np.random.default_rng(0).standard_normal((300, 4))))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="at dim 2"):
                persistence.build_filtration(d, max_dim=2, simplex_cap=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense (n_edges, 2, n) adjacency gather peaked at 84.3 MiB here
        assert peak < 72 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_simplex_cap_counts_before_it_builds(self):
        # a complete graph: C(400, 3) = 10,586,800 triangle candidates, all
        # survivors; the guard counts them a block of parents at a time
        d = DistanceMatrix(euclidean_matrix(
            np.random.default_rng(0).standard_normal((400, 3))))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="at dim 2"):
                persistence.build_filtration(d, max_dim=2, simplex_cap=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # building the candidates first peaked at 137 MiB here; the edges'
        # own level takes about 6 MiB
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_peak_memory_is_a_small_multiple_of_the_output(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0.0, 2 * math.pi, 800)
        pts = np.column_stack([np.cos(t), np.sin(t)]) + 0.01 * rng.standard_normal((800, 2))
        d = DistanceMatrix(euclidean_matrix(pts))
        tracemalloc.start()
        try:
            f = persistence.build_filtration(d, max_dim=1, t_max=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [verts.shape[0] for verts, _ in f.blocks] == [800, 4863, 14714]
        held = sum(verts.nbytes + vals.nbytes for verts, vals in f.blocks)
        held += sum(table.nbytes for table in f.facets)
        assert peak <= 5 * held, f"peak {peak} bytes for {held} held"

    def test_nan_t_max_rejected(self):
        with pytest.raises(FormatError, match="t_max is NaN"):
            persistence.build_filtration(FOUR_CYCLE, max_dim=1, t_max=math.nan)

    @pytest.mark.parametrize("t_max", [-1.0, -math.inf])
    def test_negative_t_max_rejected(self, t_max):
        # no vertex is born by a negative t_max, so there is no filtration
        with pytest.raises(FormatError, match=r"t_max -\S+ is negative"):
            persistence.build_filtration(FOUR_CYCLE, max_dim=1, t_max=t_max)

    @pytest.mark.parametrize("d", [
        np.zeros((0, 0)),
        np.zeros((1, 1)),
        np.array([[0.0, math.inf], [math.inf, 0.0]]),
        FOUR_CYCLE,
        np.where(FOUR_CYCLE == 2.0, math.inf, FOUR_CYCLE),
    ], ids=["n0", "n1", "all-inf", "four-cycle", "four-cycle-inf"])
    def test_default_t_max_is_the_largest_finite_entry(self, d):
        finite = d[np.isfinite(d)]
        want = finite.max() if finite.size else 0.0
        assert persistence.build_filtration(d, max_dim=0).t_max == want

    def test_default_t_max_copies_no_entries(self):
        rng = np.random.default_rng(0)
        d = np.triu(rng.uniform(1.0, 2.0, (1000, 1000)), 1)
        d = DistanceMatrix(d + d.T)
        peaks = []
        for t_max in (None, float(d.data.max())):
            tracemalloc.start()
            try:
                persistence.build_filtration(d, max_dim=0, t_max=t_max)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a copy of the finite entries would be n * n doubles, 7.6 MiB
        assert peaks[0] <= peaks[1] + 2 * 2**20, [p / 2**20 for p in peaks]


class TestBarcodes:
    def test_four_cycle(self):
        f = persistence.build_filtration(FOUR_CYCLE, max_dim=1)
        bc = persistence.compute_barcodes(f)
        assert bars(bc, 0) == [(0.0, 1.0)] * 3 + [(0.0, math.inf)]
        assert bars(bc, 1) == [(1.0, 2.0)]
        # the second triangle-filler pairs with the other 2-edge: zero length
        assert (2.0, 2.0) in bars(bc, 1, include_zero=True) or bars(bc, 1) == [
            (1.0, 2.0)
        ]

    def test_two_points(self):
        d = np.array([[0.0, 5.0], [5.0, 0.0]])
        f = persistence.build_filtration(d, max_dim=1)
        bc = persistence.compute_barcodes(f)
        assert bars(bc, 0) == [(0.0, 5.0), (0.0, math.inf)]

    def test_dims_outside_the_barcode_have_no_bars(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        bc = persistence.compute_barcodes(persistence.build_filtration(d, max_dim=1))
        assert bars(bc, 1, include_zero=True) == [(2.0, 2.0)]
        # a negative dim does not index from the end
        for dim in (-1, -2, 2):
            assert bars(bc, dim) == [] and bars(bc, dim, include_zero=True) == []

    def test_circle_has_one_long_loop(self):
        d = euclidean_matrix(circle_points(20))
        f = persistence.build_filtration(d, max_dim=2)
        bc = persistence.compute_barcodes(f)
        h1 = bars(bc, 1)
        longest = max(e - b for b, e in h1 if e != math.inf)
        long_bars = [ival for ival in h1 if ival[1] - ival[0] > 0.25 * longest]
        assert len(long_bars) == 1

    def test_h0_deaths_are_mst_weights(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            d = euclidean_matrix(rng.standard_normal((n, 3)))
            f = persistence.build_filtration(d, max_dim=1)
            bc = persistence.compute_barcodes(f)
            deaths = sorted(e for b, e in bars(bc, 0) if e != math.inf)
            assert np.allclose(deaths, mst_weights(d))

    def test_infinite_h0_bars_count_components(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            d = np.triu(rng.integers(1, 8, (n, n)).astype(float), 1)
            d = d + d.T
            t = 3.0
            f = persistence.build_filtration(d, max_dim=1, t_max=t)
            bc = persistence.compute_barcodes(f)
            inf_bars = [b for b, e in bars(bc, 0, include_zero=True) if e == math.inf]
            assert len(inf_bars) == n_components(d, t)

    @pytest.mark.parametrize("max_dim", [0, 1, 2])
    def test_matches_naive_reduction(self, max_dim):
        rng = np.random.default_rng(61 + max_dim)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            if rng.random() < 0.5:
                d = euclidean_matrix(rng.standard_normal((n, max(2, max_dim))))
            else:
                d = np.triu(rng.integers(1, 6, (n, n)).astype(float), 1)
                d = d + d.T
            f = persistence.build_filtration(d, max_dim=max_dim)
            bc = persistence.compute_barcodes(f)
            want = naive_barcodes(d, max_dim)
            for q in range(max_dim + 1):
                got = sorted(bars(bc, q, include_zero=True))
                assert got == sorted(want.get(q, [])), f"dim {q}\n{d}"

    def test_euler_characteristic_balance(self):
        # every simplex either creates or kills: bar endpoints account for all
        rng = np.random.default_rng(67)
        n = 7
        d = euclidean_matrix(rng.standard_normal((n, 2)))
        # full complex: cliques up to all n points, so nothing is truncated
        f = persistence.build_filtration(d, max_dim=n - 1)
        bc = persistence.compute_barcodes(f)
        n_simplices = len(filtration_simplices(f))
        assert n_simplices == 2**n - 1
        n_endpoints = 0
        for q in range(n):
            for b, e in bars(bc, q, include_zero=True):
                n_endpoints += 1 if e == math.inf else 2
        assert n_endpoints == n_simplices


def facet_apparent_pairs(table, skip):
    """Apparent pairs of a pass, read off its facet table.

    (f, j) with f not cleared, j the earliest coface of f and f the latest
    facet of j: no column right of f holds j, so j is f's pivot.
    """
    earliest = {}
    for j, faces in enumerate(table.tolist()):       # cofaces in filtration order
        for f in faces:
            earliest.setdefault(f, j)
    return {f: j for f, j in earliest.items() if not skip[f] and max(table[j]) == f}


def record_passes(monkeypatch):
    """Wrap reduce_columns; the list it returns gets (skip, low) per pass."""
    passes = []
    reduce_columns = _kernels.reduce_columns

    def recording(col_ptr, col_rows, skip):
        low = reduce_columns(col_ptr, col_rows, skip)
        passes.append((skip.copy(), low))
        return low

    monkeypatch.setattr(_kernels, "reduce_columns", recording)
    return passes


class TestCohomologyReduction:
    def test_coboundaries_reduced_last_to_first_in_filtration_order_with_clearing(self, monkeypatch):
        passes = record_passes(monkeypatch)
        d = euclidean_matrix(circle_points(12))
        f = persistence.build_filtration(d, max_dim=2)
        persistence.compute_barcodes(f)
        calls = [(skip.size, int(skip.sum()), int(np.sum(low >= 0))) for skip, low in passes]
        sizes = [verts.shape[0] for verts, _ in f.blocks]
        assert all(sizes)
        # one pass per dimension 1..3, whose columns are the simplices one
        # dimension down: the top block's tetrahedra are never columns
        assert [n_cols for n_cols, _, _ in calls] == sizes[:-1]
        # clearing: the pass of dimension d skips the previous pass's deaths
        assert calls[0][1] == 0
        for prev, cur in zip(calls, calls[1:]):
            assert cur[1] == prev[2]
        assert sum(skipped for _, skipped, _ in calls) > 0


def criterion9_torus():
    """The criterion-9 torus grid at the benchmark's scale, Rips to t_max 1.7."""
    anchors = sampling.random_orthogonal_anchors(12, 5, seed=42)
    pts = np.stack(sampling.torus_samples(sampling.AnchorFamily(anchors), 10, 10, alpha=1.0))
    return persistence.build_filtration(euclidean_matrix(pts), max_dim=2, t_max=1.7)


def test_reduction_loop_visits_each_live_column_once(monkeypatch):
    f = criterion9_torus()
    passes = record_passes(monkeypatch)
    owner_type, calls = pivot_lookups()       # a visit looks up its first pivot
    monkeypatch.setattr(_kernels, "dict", owner_type, raising=False)
    persistence.compute_barcodes(f)
    assert len(calls) == len(passes) == 3
    for dim, ((skip, _), visits) in enumerate(zip(passes, calls), start=1):
        # right to left, each live column once, from its lowest row
        col_ptr, col_rows = persistence._coboundary(f.facets[dim], skip.size)
        live = np.flatnonzero(~skip & np.isin(np.arange(skip.size), f.facets[dim]))
        assert [v[0] for v in visits] == col_rows[col_ptr[live[::-1]]].tolist()
    # each lookup after a visit's first follows one addition
    assert [len(visits) for visits in calls] == [100, 1301, 5501]
    assert [sum(len(v) - 1 for v in visits) for visits in calls] == [99, 471, 519]


# sha256 of each pass's pivots (the int64 `low` array) on the criterion-9
# torus, as the set-based reduction found them
TORUS_PIVOT_DIGESTS = [
    "87e781e0b47e617330aa7c2b9e7a6c7601f9bbf8b609e43e132bb64b49713430",
    "1fc7220f5645a31e678708bbea60a749b675f1fd8649c5e055519d5e55de5072",
    "2f66bdb73eceb71d52e0e2d6aedde8d1f617ff9c823dc0b6ec4e21061de5399a",
]


def test_torus_pivots_are_pinned(monkeypatch):
    f = criterion9_torus()
    passes = record_passes(monkeypatch)
    persistence.compute_barcodes(f)
    got = [hashlib.sha256(low.astype("<i8").tobytes()).hexdigest() for _, low in passes]
    assert got == TORUS_PIVOT_DIGESTS


def test_reduction_peak_is_a_small_multiple_of_its_coboundary(monkeypatch):
    f = criterion9_torus()
    reduce_columns = _kernels.reduce_columns
    passes = record_passes(monkeypatch)
    persistence.compute_barcodes(f)
    skip = passes[2][0]                       # triangles against tetrahedra
    col_ptr, col_rows = persistence._coboundary(f.facets[3], skip.size)
    tracemalloc.start()
    try:
        reduce_columns(col_ptr, col_rows, skip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the owner map takes about 1.5 times the rows, and the column pointers
    # and live columns as Python ints take the peak to about 2.5
    assert peak <= 3.0 * col_rows.nbytes, f"peak {peak / col_rows.nbytes:.2f} x"


@st.composite
def distance_problems(draw):
    """Small distance matrices, Euclidean or with tied integer entries."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
        pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
        d = euclidean_matrix(pts)
    else:
        entries = draw(st.lists(st.integers(1, 3), min_size=n * n, max_size=n * n))
        d = np.triu(np.array(entries, dtype=float).reshape(n, n), 1)
        d = d + d.T
    values = sorted(set(d[np.triu_indices(n, 1)].tolist())) or [0.0]
    t_max = draw(
        st.none()
        | st.sampled_from(values)
        | st.floats(0.0, values[-1], allow_nan=False)
    )
    return d, draw(st.integers(0, 3)), t_max


@given(distance_problems())
def test_barcode_equals_naive_oracle(problem):
    d, max_dim, t_max = problem
    f = persistence.build_filtration(d, max_dim=max_dim, t_max=t_max)
    bc = persistence.compute_barcodes(f)
    want = naive_barcodes(d, max_dim, t_max)
    for q in range(max_dim + 1):
        assert bars(bc, q, include_zero=True) == sorted(want.get(q, []))


@given(distance_problems())
def test_apparent_pairs_are_pivots(problem):
    d, max_dim, t_max = problem
    f = persistence.build_filtration(d, max_dim=max_dim, t_max=t_max)
    with pytest.MonkeyPatch.context() as mp:
        passes = record_passes(mp)
        persistence.compute_barcodes(f)
    assert len(passes) == max_dim + 1
    for dim, (skip, low) in enumerate(passes, start=1):
        for face, coface in facet_apparent_pairs(f.facets[dim], skip).items():
            assert low[face] == coface


@given(distance_problems())
def test_facet_tables_name_each_facet(problem):
    d, max_dim, t_max = problem
    f = persistence.build_filtration(d, max_dim=max_dim, t_max=t_max)
    assert len(f.facets) == len(f.blocks) == max_dim + 2
    # a vertex's one facet is the empty simplex, 0
    assert f.facets[0].shape == (f.n_points, 1) and not f.facets[0].any()
    for dim in range(1, len(f.blocks)):
        verts, faces, table = f.blocks[dim][0], f.blocks[dim - 1][0], f.facets[dim]
        assert table.shape == verts.shape
        for k in range(dim + 1):
            assert np.array_equal(faces[table[:, k]], np.delete(verts, k, axis=1))


@given(distance_problems())
def test_coboundary_rows_are_distinct_cofaces(problem):
    # reduce_columns relies on this: rows within a column are distinct and
    # ascending
    d, max_dim, t_max = problem
    f = persistence.build_filtration(d, max_dim=max_dim, t_max=t_max)
    for dim in range(1, len(f.blocks)):
        cofaces, faces = f.blocks[dim][0], f.blocks[dim - 1][0]
        col_ptr, col_rows = persistence._coboundary(f.facets[dim], faces.shape[0])
        assert len(col_ptr) == faces.shape[0] + 1 and col_ptr[-1] == col_rows.size
        for lo, hi in zip(col_ptr[:-1], col_ptr[1:]):
            assert np.all(np.diff(col_rows[lo:hi]) > 0)
        assert np.all((col_rows >= 0) & (col_rows < cofaces.shape[0]))
        counts = np.bincount(col_rows, minlength=cofaces.shape[0])
        assert np.all(counts == dim + 1)


# LDM entries: small and huge integers, arbitrary doubles, inf
_ldm_entries = st.one_of(
    st.integers(0, 1000).map(float),
    st.floats(0.0, 1e308, allow_nan=False),
    st.integers(2**53, 2**80).map(float),
    st.just(1e300),
    st.just(math.inf),
)


@st.composite
def ldm_matrices(draw):
    n = draw(st.integers(1, 8))
    entries = draw(st.lists(_ldm_entries, min_size=n * (n - 1) // 2,
                            max_size=n * (n - 1) // 2))
    D = np.zeros((n, n))
    D[np.tril_indices(n, -1)] = entries
    return D + D.T


@given(ldm_matrices())
def test_ldm_text_matches_per_entry_oracle(D):
    sink = io.StringIO()
    persistence.export_lower_distance(D, sink)
    text = sink.getvalue()
    assert text == ldm_text(D)
    back = persistence.read_lower_distance(io.StringIO(text))
    assert back.data.tobytes() == D.tobytes()


# The three LDM tests of up to 300 points report a failing example as it
# was drawn, without shrinking it: each is a matrix drawn from a seed, so a
# shrink step only draws another matrix, and each step parses up to 44,850
# entries with the line reader; a planted reader fault once kept the
# shrinker going for minutes.  A failing run then takes no longer than a
# passing one, which draws the same sizes and as many examples.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@st.composite
def ldm_block_matrices(draw):
    """n up to 300, so the writer's blocks of rows end mid-matrix.

    Entries come from a small drawn vocabulary (small and huge integers,
    -0.0, inf, 1e300, arbitrary doubles), mixed with a drawn share of
    uniformly random finite non-negative bit patterns.
    """
    n = draw(st.integers(1, 300))
    vocab = np.array(draw(st.lists(st.one_of(_ldm_entries, st.just(-0.0)),
                                   min_size=1, max_size=6)))
    share = draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = n * (n - 1) // 2
    entries = vocab[rng.integers(0, vocab.size, m)]
    doubles = rng.integers(0, 0x7FF0000000000000, m).view(np.float64)
    mixed = rng.random(m) < share
    entries[mixed] = doubles[mixed]
    D = np.zeros((n, n))
    D[np.tril_indices(n, -1)] = entries
    return D + D.T


@settings(max_examples=40, phases=_NO_SHRINK)
@given(ldm_block_matrices())
def test_ldm_blocks_match_per_entry_oracle(D):
    sink = io.StringIO()
    persistence.export_lower_distance(D, sink)
    text = sink.getvalue()
    assert text == ldm_text(D)
    back = persistence.read_lower_distance(io.StringIO(text))
    # -0.0 is written "0", as the oracle writes it, and reads back as 0.0
    assert back.data.tobytes() == (D + 0.0).tobytes()


@st.composite
def integral_ldm_matrices(draw):
    """Integral matrices of up to 300 points, so the writer's blocks of rows
    end mid-matrix.  Entries have up to a drawn number of digits, a drawn
    share of them 0, -0.0, 10**15 - 1 or 10**15; one entry may be inf or
    a fraction, so its block takes the vocabulary writer."""
    n = draw(st.integers(2, 300))
    digits = draw(st.integers(1, 15))
    share = draw(st.sampled_from([0.0, 0.01, 0.3]))
    odd = draw(st.sampled_from([None, None, math.inf, 0.5, 1e14 + 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = n * (n - 1) // 2
    entries = rng.integers(0, 10**digits, m).astype(float)
    special = np.flatnonzero(rng.random(m) < share)
    entries[special] = np.array([0.0, -0.0, 1e15 - 1, 1e15])[rng.integers(0, 4, special.size)]
    if odd is not None:
        entries[rng.integers(m)] = odd
    D = np.zeros((n, n))
    i, j = np.tril_indices(n, -1)
    D[i, j] = D[j, i] = entries
    return D


@settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
@given(integral_ldm_matrices())
def test_ldm_digit_writer_matches_vocabulary_writer(D):
    sink = io.StringIO()
    persistence.export_lower_distance(D, sink)
    text = sink.getvalue()
    assert text == ldm_vocabulary_text(D)
    # -0.0 is written "0" and reads back as 0.0
    want = (D + 0.0).tobytes()
    assert persistence._read_lines(io.StringIO(text)).data.tobytes() == want
    digits = persistence._read_digits(text.encode())
    if np.all(D < 1e15) and np.array_equal(D, np.round(D)):
        assert digits.data.tobytes() == want
    else:
        assert digits is None


def test_ldm_formats_each_distinct_value_once_per_block(monkeypatch):
    n = 778
    rng = np.random.default_rng(778)
    D = np.triu(rng.integers(0, 513, (n, n)).astype(float), 1)
    D = D + D.T
    distinct = np.unique(D[np.tril_indices(n, -1)]).size
    fmt, calls = persistence._fmt, []

    def counted(x):
        calls.append(x)
        return fmt(x)

    monkeypatch.setattr(persistence, "_fmt", counted)
    sink = io.StringIO()
    persistence.export_lower_distance(D, sink)
    step = _kernels.per_block(8 * n)
    blocks = -(-(n - 1) // step)
    assert distinct <= 513 and blocks == 37
    assert len(calls) <= blocks * distinct < n * (n - 1) // 2 // 10
    back = persistence.read_lower_distance(io.StringIO(sink.getvalue()))
    assert np.array_equal(back.data, D)


class _Tally:
    """A sink that keeps only the number of characters written."""

    size = 0

    def write(self, text):
        self.size += len(text)


@pytest.mark.parametrize("n", [300, 900])
def test_ldm_writer_memory_is_one_block(n):
    """All-distinct doubles, the costliest block; at n = 900 the text is
    about twice the bound."""
    rng = np.random.default_rng(n)
    D = np.triu(rng.random((n, n)) * 10.0, 1)
    D = DistanceMatrix(D + D.T)
    bound = 32 * _kernels.BLOCK_BYTES
    sink = _Tally()
    tracemalloc.start()
    try:
        persistence.export_lower_distance(D, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak} bytes for {sink.size} characters"
    assert sink.size > n * (n - 1) // 2 * 10


@st.composite
def ldm_texts(draw):
    """LDM text of up to 300 points, so rows cross block boundaries.

    Entries are integers of at most a drawn 1 to 16 digits, a drawn share
    of them "inf"; then the text may get CRLF line ends, a blank line,
    spaces around an entry, no final newline, or a row one entry short or
    long.  Returns the text and whether it is plain digit entries of at
    most 15 digits, which the byte parser must take.
    """
    n = draw(st.integers(1, 300))
    digits = draw(st.integers(1, 16))
    share_inf = draw(st.sampled_from([0.0, 0.0, 0.05]))
    edits = draw(st.sets(st.sampled_from(
        ["crlf", "blank", "spaces", "no final newline", "short", "long"]), max_size=2))
    if {"short", "long"} <= edits:
        edits.discard("long")       # both on one row would cancel out
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = n * (n - 1) // 2
    tokens = [str(v) for v in rng.integers(0, 10 ** rng.integers(1, digits + 1, m))]
    for k in np.flatnonzero(rng.random(m) < share_inf):
        tokens[k] = "inf"
    rows = [tokens[i * (i - 1) // 2:i * (i + 1) // 2] for i in range(1, n)]
    if rows:
        row = rows[rng.integers(len(rows))]
        if "short" in edits:
            row.pop()
        if "long" in edits:
            row.append("7")
        if "spaces" in edits and row:
            row[0] = f" {row[0]} "
    lines = [",".join(row) for row in rows]
    if "blank" in edits:        # not last: "no final newline" would drop it
        lines.insert(int(rng.integers(max(len(lines), 1))), "")
    text = "".join(line + ("\r\n" if "crlf" in edits else "\n") for line in lines)
    if "no final newline" in edits:
        text = text[:-1]
    plain = n > 1 and not edits and max(map(len, tokens)) <= 15 and "inf" not in tokens
    return text, plain


def _outcome(read):
    """The doubles a reader returns, or the text of its FormatError."""
    try:
        return read().data.tobytes()
    except FormatError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
@given(ldm_texts())
# an entry of 16 digits is past _MAX_DIGITS: the line reader takes the file
@example(("1234567890123456\n", False))
def test_ldm_byte_parser_agrees_with_line_reader(case):
    text, plain = case
    assert (persistence._read_digits(text.encode()) is not None) == plain
    want = _outcome(lambda: persistence._read_lines(io.StringIO(text)))
    assert _outcome(lambda: persistence.read_lower_distance(io.StringIO(text))) == want
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ldm")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        with open(path) as fh:     # universal newlines, as the reader opens it
            want = _outcome(lambda: persistence._read_lines(fh))
        if isinstance(want, str):
            want = f"{path}: {want}"
        assert _outcome(lambda: persistence.read_lower_distance(path)) == want


def test_ldm_reader_memory_is_the_matrix(tmp_path):
    """The byte parser holds the file and one block of rows beside the
    matrix; a parse of the whole file at once would need more."""
    n = 800
    rng = np.random.default_rng(800)
    D = np.triu(rng.integers(0, 513, (n, n)).astype(float), 1)
    D = D + D.T
    path = tmp_path / "m.ldm"
    persistence.export_lower_distance(D, path)
    tracemalloc.start()
    try:
        back = persistence.read_lower_distance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.data, D)
    assert peak <= 1.8 * D.nbytes, f"peak {peak / D.nbytes:.2f} times the matrix"


def test_ldm_reader_holds_the_matrix_and_a_block(tmp_path):
    """The file is read a block of rows at a time: neither its text nor a
    second matrix is held beside the matrix (the whole text peaked at 1.49
    times it)."""
    n = 800
    rng = np.random.default_rng(801)
    D = np.triu(rng.integers(0, 513, (n, n)).astype(float), 1)
    D = D + D.T
    path = tmp_path / "m.ldm"
    persistence.export_lower_distance(D, path)
    tracemalloc.start()
    try:
        back = persistence.read_lower_distance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.data, D)
    assert peak <= 1.15 * D.nbytes, f"peak {peak / D.nbytes:.2f} times the matrix"


def test_ldm_long_last_line_is_refused_before_the_matrix(tmp_path):
    # the last line's 100,000 entries would make a 100,001-point matrix
    # (80 GB) from a 200 kB file; line 2 is the one the line reader names
    p = tmp_path / "m.ldm"
    p.write_text("1\n" + "1," * 99_999 + "1\n")
    tracemalloc.start()
    try:
        with open(p, "rb") as fh:
            assert persistence._read_digits(fh) is None
        with pytest.raises(FormatError, match="line 2: expected 2 entries, got 100000"):
            persistence.read_lower_distance(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("text", ["", "\n", "5", "5\n\n", "5\n5\n", "5\n1,2\n3,4\n"])
def test_ldm_byte_parser_declines_what_the_line_reader_decides(text):
    assert persistence._read_digits(text.encode()) is None
    assert persistence._read_digits(io.BytesIO(text.encode())) is None


class TestLowerDistanceIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(71)
        d = euclidean_matrix(rng.standard_normal((6, 2)))
        p = tmp_path / "m.ldm"
        persistence.export_lower_distance(d, p)
        back = persistence.read_lower_distance(p)
        assert np.allclose(back.data, d)

    def test_integer_entries_have_no_decimal_point(self, tmp_path):
        p = tmp_path / "m.ldm"
        persistence.export_lower_distance(FOUR_CYCLE, p)
        text = p.read_text()
        assert "1" in text and "." not in text

    def test_infinite_entry_round_trips(self, tmp_path):
        d = np.array([[0.0, np.inf, 1.5], [np.inf, 0.0, 2.0], [1.5, 2.0, 0.0]])
        p = tmp_path / "m.ldm"
        persistence.export_lower_distance(d, p)
        assert p.read_text() == "inf\n1.5,2\n"
        assert np.array_equal(persistence.read_lower_distance(p).data, d)

    def test_nan_entry_rejected_by_position(self, tmp_path):
        p = tmp_path / "nan.ldm"
        p.write_text("1\n2,nan\n")
        with pytest.raises(NonFiniteEntry, match=r"\(1, 2\)"):
            persistence.read_lower_distance(p)

    def test_ragged_file_rejected(self, tmp_path):
        p = tmp_path / "bad.ldm"
        p.write_text("1\n2,3\n4\n")
        with pytest.raises(FormatError):
            persistence.read_lower_distance(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "bad.ldm"
        p.write_text("1\n2,zap\n")
        with pytest.raises(FormatError):
            persistence.read_lower_distance(p)

    @pytest.mark.parametrize("bad", ["2,,3", "2 3", "0x2,3", "2,3,"])
    def test_malformed_entry_names_its_line(self, tmp_path, bad):
        p = tmp_path / "bad.ldm"
        p.write_text(f"1\n{bad}\n")
        with pytest.raises(FormatError, match="line 2"):
            persistence.read_lower_distance(p)


class TestBarcodeJson:
    def test_shape_and_infinite_encoding(self):
        f = persistence.build_filtration(FOUR_CYCLE, max_dim=1)
        bc = persistence.compute_barcodes(f)
        obj = bc.to_json_obj()
        assert isinstance(obj, list)
        d0 = next(e for e in obj if e["dim"] == 0)
        assert [1.0, None] not in d0["bars"]
        assert [0.0, None] in d0["bars"]
