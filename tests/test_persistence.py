import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reluhom import _kernels, persistence
from reluhom.errors import FormatError, NonFiniteEntry, ResourceCapError
from oracles import ldm_text, naive_barcodes, n_components, mst_weights


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
        sims = list(f.simplices())
        by_dim = {}
        for verts, val in sims:
            by_dim.setdefault(len(verts) - 1, []).append(val)
        assert len(by_dim[0]) == 4 and all(v == 0 for v in by_dim[0])
        assert sorted(by_dim[1]) == [1, 1, 1, 1, 2, 2]

    def test_ordering_value_then_dim(self):
        f = persistence.build_filtration(FOUR_CYCLE, max_dim=2)
        sims = list(f.simplices())
        keys = [(val, len(verts) - 1, tuple(verts)) for verts, val in sims]
        assert keys == sorted(keys)

    def test_faces_enter_no_later(self):
        from itertools import combinations

        rng = np.random.default_rng(51)
        d = euclidean_matrix(rng.standard_normal((10, 3)))
        f = persistence.build_filtration(d, max_dim=2)
        when = {tuple(v): val for v, val in f.simplices()}
        for verts, val in f.simplices():
            if len(verts) > 1:
                for face in combinations(verts, len(verts) - 1):
                    assert when[face] <= val

    def test_value_is_diameter(self):
        rng = np.random.default_rng(53)
        d = euclidean_matrix(rng.standard_normal((8, 2)))
        f = persistence.build_filtration(d, max_dim=2)
        for verts, val in f.simplices():
            if len(verts) >= 2:
                want = max(d[a, b] for a in verts for b in verts)
                assert val == pytest.approx(want)

    def test_t_max_cuts_long_edges(self):
        f = persistence.build_filtration(FOUR_CYCLE, max_dim=1, t_max=1.5)
        vals = [val for verts, val in f.simplices() if len(verts) == 2]
        assert sorted(vals) == [1, 1, 1, 1]

    def test_simplex_cap(self):
        d = euclidean_matrix(np.random.default_rng(0).standard_normal((20, 2)))
        with pytest.raises(ResourceCapError):
            persistence.build_filtration(d, max_dim=3, simplex_cap=50)


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
        n_simplices = sum(1 for _ in f.simplices())
        assert n_simplices == 2**n - 1
        n_endpoints = 0
        for q in range(n):
            for b, e in bars(bc, q, include_zero=True):
                n_endpoints += 1 if e == math.inf else 2
        assert n_endpoints == n_simplices


class TestCohomologyReduction:
    def test_coboundaries_reduced_bottom_up_with_clearing(self, monkeypatch):
        calls = []
        reduce_columns = _kernels.reduce_columns

        def recording(col_ptr, col_rows, skip):
            low = reduce_columns(col_ptr, col_rows, skip)
            calls.append((len(col_ptr) - 1, int(np.sum(skip)), int(np.sum(low >= 0))))
            return low

        monkeypatch.setattr(_kernels, "reduce_columns", recording)
        d = euclidean_matrix(circle_points(12))
        f = persistence.build_filtration(d, max_dim=2)
        persistence.compute_barcodes(f)
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
