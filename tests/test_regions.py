import hashlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from scipy.optimize import linprog

from reluhom import enumeration, lp, network, regions
from reluhom.errors import (
    BoundaryPointError,
    DegenerateSystemError,
    InfeasibleSystemError,
)
from conftest import random_net
from oracles import (
    bit,
    duplicate_rows_loop,
    essential_rows_linprog,
    facet_points,
    from_bits,
    full_system,
    neighbors,
    polygon_facet_count,
    region_bytes,
)


# the unit square with its corner cut by x + y <= 1.9: the cut row lies 0.1
# inside the square's corner, so it is a facet for tau_lp < 0.1 only
CUT_SQUARE_A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
CUT_SQUARE_C = np.array([1.0, 1.0, 0.0, 0.0, 1.9])
# the square |x|, |y| <= 1 and y <= 1.05: at tau_lp = 0.1 rays certify rows
# 0, 1 and 3 only, and rows 2 and 4, parallel and 0.05 apart, each bound the
# other within tau_lp
PARALLEL_A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 1.0]])
PARALLEL_C = np.array([1.0, 1.0, 1.0, 1.0, 1.05])
# row 1 repeats row 0, and row 2 repeats row 1 but not row 0: only a row that
# is not itself a repeat marks later copies, so row 2 stays
REPEAT_CHAIN = (
    np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]),
    np.array([1.0, 2.0 * (1.0 + 0.6 * regions._DUP_TOL), 1.0 + 1.2 * regions._DUP_TOL]),
)


@pytest.fixture
def net_x1():
    # z = (x1, x1 - 1, -x1): the patterns 010 and 000 cut out x1 <= 0 <= x1 - 1
    # (empty) and x1 <= 0 <= x1 (the line x1 = 0)
    W1 = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    b1 = np.array([0.0, -1.0, 0.0])
    return network.NetworkSpec((W1, np.ones((1, 3))), (b1, np.zeros(1)), 2)


@st.composite
def near_degenerate_systems(draw, n=None):
    """Full-dimensional A x <= c in 2-4 D (or n D) with scaled duplicates
    and rows tangent at a vertex, plus the tolerance to decide them at.

    Hypothesis draws the shape; the entries come from a seeded generator.
    """
    from scipy.optimize import linprog

    n = draw(st.integers(2, 4)) if n is None else n
    m = draw(st.integers(n + 1, 8))
    boxed = draw(st.booleans())
    n_tangent = draw(st.integers(0, 2))
    n_dup = draw(st.integers(0, 2))
    tau_lp = draw(st.sampled_from([lp.TAU_LP, 0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    c = A @ x0 + rng.uniform(0.1, 1.0, m)
    if boxed:
        A = np.vstack([A, np.eye(n), -np.eye(n)])
        c = np.concatenate([c, x0 + 3.0, 3.0 - x0])
    for _ in range(n_tangent):
        # a positive combination of the rows tight at a vertex touches the
        # region at that vertex only
        res = linprog(-rng.standard_normal(n), A_ub=A, b_ub=c,
                      bounds=[(None, None)] * n, method="highs")
        if res.status != 0:
            continue
        tight = np.abs(A @ res.x - c) <= 1e-9
        w = rng.uniform(0.2, 1.0, tight.sum())
        A = np.vstack([A, w @ A[tight]])
        c = np.append(c, w @ c[tight])
    for _ in range(n_dup):
        k = rng.integers(A.shape[0])
        s = rng.uniform(0.5, 3.0)
        A = np.vstack([A, s * A[k]])
        c = np.append(c, s * c[k])
    order = rng.permutation(A.shape[0])
    return A[order], c[order], tau_lp


@st.composite
def stacked_systems(draw):
    """Systems of one shape, to run as one stack, and the tolerance.

    Each is near-degenerate, empty (two opposite half-spaces, or a zero
    row 0 <= c < 0), lower-dimensional (a slab of width 0), or a box with a
    zero row and a scaled duplicate; all are padded with inert zero rows
    0 <= 1 to the longest.
    """
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    systems = []
    for kind in draw(st.lists(st.sampled_from(["near", "empty", "zero", "flat", "dup"]),
                              min_size=1, max_size=6)):
        if kind == "near":
            A, c, _ = draw(near_degenerate_systems(n))
        else:
            a = rng.standard_normal(n)
            A = np.vstack([rng.standard_normal((3, n)), np.eye(n), -np.eye(n)])
            c = np.concatenate([rng.uniform(0.5, 2.0, 3), np.full(2 * n, 3.0)])
            extra = {"empty": ([a, -a], [-1.0, -1.0]), "flat": ([a, -a], [0.0, 0.0]),
                     "zero": ([0.0 * a], [-1.0]), "dup": ([0.0 * a, 2.5 * A[1]], [1.0, 2.5 * c[1]])}
            rows, rhs = extra[kind]
            A, c = np.vstack([A, rows]), np.append(c, rhs)
        systems.append((A, c))
    m = max(A.shape[0] for A, _ in systems)
    A = np.stack([np.vstack([A, np.zeros((m - len(A), n))]) for A, _ in systems])
    c = np.stack([np.append(c, np.ones(m - len(c))) for _, c in systems])
    return A, c, draw(st.sampled_from([lp.TAU_LP, 0.05]))


@st.composite
def rows_with_repeats(draw):
    """Rows in 1-4 D with zero rows, scaled repeats and near repeats whose
    normalised right-hand side sits just inside or just outside _DUP_TOL.

    Hypothesis draws the shape; the entries come from a seeded generator.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    c = rng.standard_normal(m) * draw(st.sampled_from([1.0, 1e3]))
    for _ in range(draw(st.integers(0, 6))):
        k = int(rng.integers(A.shape[0]))
        s = rng.uniform(0.1, 10.0)
        gap = draw(st.sampled_from([0.0, 0.3, 0.6, 0.999, 1.001, 1.4, 2.0]))
        # a repeat of row k, its normalised c moved by gap * _DUP_TOL
        A = np.vstack([A, s * A[k]])
        c = np.append(c, s * (c[k] + gap * regions._DUP_TOL * np.linalg.norm(A[k])))
    for _ in range(draw(st.integers(0, 2))):
        A = np.vstack([A, np.zeros(n)])
        c = np.append(c, rng.standard_normal())
    order = rng.permutation(A.shape[0])
    return A[order], c[order]


def essential_rows(A, c, tau_lp=lp.TAU_LP, tau_dim=lp.TAU_DIM):
    """The rows `_essentialize` keeps of the one system A x <= c, as a stack
    of one, and its center; raises the error `_ball_error` builds when its
    radius is at most tau_dim."""
    keep, centers, radii = regions._essentialize(A[None], c[None], tau_lp, tau_dim)
    if radii[0] <= tau_dim:
        raise regions._ball_error(A, c, radii[0], tau_dim)
    return np.flatnonzero(keep[0]), centers[0]


class TestAssemble:
    def test_rows_match_bit_count(self, net_2331):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2)
        bits = network.bit_vector(net_2331, x)
        (A, c), _ = regions._hat_maps(net_2331, [bits])
        assert A.shape == (1, net_2331.h, 2)
        assert c.shape == (1, net_2331.h)

    def test_sample_point_satisfies_system_strictly(self, net_2331):
        # the 50 points' patterns as one stack
        rng = np.random.default_rng(1)
        xs = np.array([rng.standard_normal(2) * 2 for _ in range(50)])
        (A, c), _ = regions._hat_maps(net_2331, [network.bit_vector(net_2331, x) for x in xs])
        assert np.all((A @ xs[:, :, None])[:, :, 0] < c + 1e-9)

    def test_signs_encode_bits(self, net_221):
        # one hidden layer: rows are +/-W1 depending on the bit
        x = np.array([0.5, 0.5])
        bits = network.bit_vector(net_221, x)
        (A, c), _ = regions._hat_maps(net_221, [bits])
        W1, b1 = net_221.weights[0], net_221.biases[0]
        for j in range(2):
            sgn = -1.0 if bit(bits, j) else 1.0
            assert np.allclose(A[0, j], sgn * W1[j])
            assert c[0, j] == pytest.approx(sgn * -b1[j])

    def test_other_patterns_excluded(self, net_2331):
        # a point from a different region must violate this region's system
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2)
        bits = network.bit_vector(net_2331, x)
        (A, c), _ = regions._hat_maps(net_2331, [bits])
        A, c = A[0], c[0]
        seen_other = 0
        for _ in range(200):
            y = rng.standard_normal(2) * 3
            if network.bit_vector(net_2331, y) != bits:
                assert np.any(A @ y > c - 1e-9)
                seen_other += 1
        assert seen_other > 0

    @pytest.mark.parametrize("m,sizes,seed,want", [
        (2, [6, 6, 6], 3, "11b0ba6ee5daf594f4e289b277de71391643de09d16b37593824cf481e89d903"),
        (3, [0, 2], 0, "d347dc373a19c90e39ef448c22ca561c03b52c64ef15bf14e24437a7c1e68419"),
        (2, [5, 1, 5], 5, "b4090bdbffb1d62d467a247af3f69163292957b03dafae1ecd06da8df6f7553f"),
    ])
    def test_prefix_rows_are_the_whole_patterns_first_rows(self, m, sizes, seed, want):
        # k bits of a pattern give rows 0..k-1 of its whole system, bit for
        # bit, at every k, and then the box rows, if any; the whole systems
        # and maps of the 40 patterns are pinned as recorded when
        # `_hat_maps` built whole patterns only, and with the box they are
        # `full_system`'s
        net = random_net(m, sizes, seed)
        values = [int(v) for v in np.random.default_rng(0).integers(0, 1 << net.h, 40)]
        (A, c), (M, v) = regions._hat_maps(net, network.PackedBits.of_values(values, net.h))
        assert hashlib.sha256(b"".join(a.tobytes() for a in (A, c, M, v))).hexdigest() == want
        for box in (None, enumeration.BoxRegion(np.full(m, -3.0), np.full(m, 3.0)).rows()):
            B, d = box or (np.empty((0, m)), np.empty(0))
            for k in range(net.h + 1):
                prefixes = network.PackedBits.of_values([x & ((1 << k) - 1) for x in values], k)
                (A_k, c_k), maps = regions._hat_maps(net, prefixes, box)
                assert A_k.tobytes() == np.concatenate(
                    [A[:, :k], np.broadcast_to(B, (len(A),) + B.shape)], axis=1).tobytes()
                assert c_k.tobytes() == np.concatenate(
                    [c[:, :k], np.broadcast_to(d, (len(c),) + d.shape)], axis=1).tobytes()
            assert [a.tobytes() for a in maps] == [M.tobytes(), v.tobytes()]
            for bits, A_s, c_s in zip(prefixes, A_k, c_k):
                A_f, c_f = full_system(net, bits, *(box or ()))
                assert (A_s.tobytes(), c_s.tobytes()) == (A_f.tobytes(), c_f.tobytes())


class TestAffineMap:
    def test_matches_forward_on_region(self, net_2331):
        # the 30 points' patterns as one stack
        rng = np.random.default_rng(5)
        xs = [rng.standard_normal(2) * 2 for _ in range(30)]
        _, (M, v) = regions._hat_maps(net_2331, [network.bit_vector(net_2331, x) for x in xs])
        for x, Mx, vx in zip(xs, M, v):
            _, out = network.forward(net_2331, x)
            assert np.allclose(Mx @ x + vx, out, atol=1e-10)

    def test_hand_computed_fixture(self, net_221):
        # x=(1,1): z1=(4,0) -> bits "10", active row W1[0]; G(x)=2*(x1+2x2+1)+0.5
        bits = network.bit_vector(net_221, np.array([1.0, 1.0]))
        assert bits.to01() == "10"
        _, (M, v) = regions._hat_maps(net_221, [bits])
        assert np.allclose(M[0], [[2.0, 4.0]])
        assert v[0] == pytest.approx(np.array([2.5]))


class TestEssentialize:
    def test_facet_count_matches_polygon_oracle(self, net_2331):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(2) * 2
            reg = regions.region_of(net_2331, x)
            want = polygon_facet_count(*full_system(net_2331, reg.bits), reg.interior)
            assert len(reg.active_bits) == want

    def test_active_rows_are_tight_somewhere(self, net_2331):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(2)
        reg = regions.region_of(net_2331, x)
        A, c = full_system(net_2331, reg.bits)
        for i in reg.active_bits:
            # maximizing the row over the region must reach its bound
            res = linprog(-A[i], A_ub=A, b_ub=c, bounds=[(None, None)] * 2,
                          method="highs")
            assert res.status == 0
            assert -res.fun == pytest.approx(c[i], abs=1e-7)

    def test_dropped_rows_are_redundant(self, net_2331):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(2)
        reg = regions.region_of(net_2331, x)
        A, c = full_system(net_2331, reg.bits)
        dropped = sorted(set(range(net_2331.h)) - set(reg.active_bits))
        for i in dropped:
            sub = np.setdiff1d(np.arange(net_2331.h), [i])
            res = linprog(-A[i], A_ub=A[sub], b_ub=c[sub],
                          bounds=[(None, None)] * 2, method="highs")
            if res.status == 0:
                assert -res.fun <= c[i] + lp.TAU_LP

    def test_duplicate_rows_keep_lowest_index(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [2.0, 0.0]])
        c = np.array([1.0, 1.0, 1.0, 1.0, 2.0])  # row 4 is row 0 scaled by 2
        keep = essential_rows(A, c)[0]
        assert 0 in keep and 4 not in keep

    @given(rows_with_repeats())
    @example(REPEAT_CHAIN)
    def test_duplicate_rows_match_loop_oracle(self, system):
        A, c = system
        got = regions._duplicate_rows(A[None], c[None], np.linalg.norm(A, axis=1)[None])[0]
        assert got.tolist() == duplicate_rows_loop(A, c, regions._DUP_TOL).tolist()

    def test_parallel_facets_certify_nothing(self):
        # at tau_lp = 0.1 the batch drops both rows 2 and 4, each within 0.1
        # of the bound the other gives it; row 2 binds at row 4's optimum, so
        # row 4 falls back to the sequence, which keeps it: without the
        # fallback the answer would be [0, 1, 3]
        for tau_lp, want in ((lp.TAU_LP, [0, 1, 2, 3]), (0.1, [0, 1, 3, 4])):
            keep = essential_rows(PARALLEL_A, PARALLEL_C, tau_lp=tau_lp)[0]
            assert keep.tolist() == want
            assert want == essential_rows_linprog(PARALLEL_A, PARALLEL_C, tau_lp)

    def test_tau_lp_decides_near_redundant_rows(self):
        keep = essential_rows(CUT_SQUARE_A, CUT_SQUARE_C, tau_lp=1e-8)[0]
        assert keep.tolist() == [0, 1, 2, 3, 4]
        keep = essential_rows(CUT_SQUARE_A, CUT_SQUARE_C, tau_lp=0.2)[0]
        assert keep.tolist() == [0, 1, 2, 3]

    @given(near_degenerate_systems())
    def test_matches_sequential_linprog_oracle(self, system):
        A, c, tau_lp = system
        keep = essential_rows(A, c, tau_lp=tau_lp)[0]
        assert keep.tolist() == essential_rows_linprog(A, c, tau_lp)

    @given(stacked_systems())
    def test_a_stack_decides_each_system_as_alone(self, case):
        A, c, tau_lp = case
        keep, centers, radii = regions._essentialize(A, c, tau_lp, lp.TAU_DIM)
        for s in range(len(A)):
            try:
                want_keep, want_center = essential_rows(A[s], c[s], tau_lp=tau_lp)
            except (InfeasibleSystemError, DegenerateSystemError) as want:
                assert radii[s] <= lp.TAU_DIM
                err = regions._ball_error(A[s], c[s], radii[s], lp.TAU_DIM)
                assert type(err) is type(want) and str(err) == str(want)
                continue
            assert radii[s] > lp.TAU_DIM
            assert np.array_equal(np.flatnonzero(keep[s]), want_keep)
            assert np.array_equal(centers[s], want_center)

    def test_lower_dimensional_raises(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        c = np.array([0.0, 0.0])
        with pytest.raises(DegenerateSystemError):
            essential_rows(A, c)

    def test_tau_dim_compares_the_whole_inradius(self):
        # the square |x|, |y| <= 2 has inradius 2, above the default LP cap
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        c = np.full(4, 2.0)
        center = essential_rows(A, c, tau_dim=1.5)[1]
        assert np.all(A @ center < c)
        with pytest.raises(DegenerateSystemError):
            essential_rows(A, c, tau_dim=2.5)


class TestRegionOf:
    def test_interior_witness_reproduces_bits(self, net_2331):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.standard_normal(2) * 2
            reg = regions.region_of(net_2331, x)
            assert network.bit_vector(net_2331, reg.interior) == reg.bits

    def test_boundary_point_rejected(self):
        net = network.NetworkSpec(
            weights=[np.array([[1.0, 0.0]]), np.array([[1.0]])],
            biases=[np.zeros(1), np.zeros(1)],
            input_dim=2,
        )
        with pytest.raises(BoundaryPointError):
            regions.region_of(net, np.array([0.0, 3.0]))

    def test_region_from_bits_box_rows_flagged(self, net_2331):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(2) * 0.1
        bits = network.bit_vector(net_2331, x)
        B = np.vstack([np.eye(2), -np.eye(2)])
        d = np.full(4, 10.0)
        reg = regions.regions_from_bits(net_2331, [bits], B, d)[0]
        A, c = full_system(net_2331, bits, B, d)
        A0, c0 = A[:net_2331.h], c[:net_2331.h]
        # the facets are the system's rows at the active bits, box rows included
        active = list(reg.active_bits)
        assert np.array_equal(reg.A_essential, A[active])
        assert np.array_equal(reg.c_essential, c[active])
        # a box row is a facet exactly when everything else pokes past it
        for j in range(4):
            others = np.setdiff1d(np.arange(4), [j])
            Arest = np.vstack([A0, B[others]])
            crest = np.concatenate([c0, d[others]])
            res = linprog(-B[j], A_ub=Arest, b_ub=crest, bounds=[(None, None)] * 2,
                          method="highs")
            clips = res.status == 3 or -res.fun > d[j] + 1e-7
            assert ((net_2331.h + j) in reg.active_bits) == clips

    def test_composed_maps_built_once_per_region(self, net_2331, monkeypatch):
        calls = []
        hat_maps = regions._hat_maps

        def counting(net, patterns, extra=None):
            calls.extend(patterns)
            return hat_maps(net, patterns, extra)

        monkeypatch.setattr(regions, "_hat_maps", counting)
        bits = network.bit_vector(net_2331, np.random.default_rng(21).standard_normal(2))
        reg = regions.region_from_bits(net_2331, bits)
        assert calls == [bits]
        (A, c), (M, v) = hat_maps(net_2331, [bits])
        active = list(reg.active_bits)
        assert np.array_equal(reg.A_essential, A[0, active])
        assert np.array_equal(reg.c_essential, c[0, active])
        assert np.array_equal(reg.affine[0], M[0]) and np.array_equal(reg.affine[1], v[0])

    def test_zero_row_with_negative_rhs_is_infeasible(self, net_2331):
        # with every layer-1 unit off, each layer-2 row is zero with right-hand
        # side -b2 (bit 0) or b2 (bit 1); these bits make every one negative
        b2 = net_2331.biases[1]
        bits = from_bits([0, 0, 0] + [int(v < 0) for v in b2])
        (A, c), _ = regions._hat_maps(net_2331, [bits])
        assert np.all(A[0, 3:] == 0) and np.all(c[0, 3:] < 0)
        with pytest.raises(InfeasibleSystemError, match=r"^pattern 000\d{3}: .*infeasible"):
            regions.region_from_bits(net_2331, bits)

    def test_geometry_errors_name_the_pattern(self, net_x1):
        # the types _ball_error names, so CLI exit codes do not change
        with pytest.raises(InfeasibleSystemError, match=r"^pattern 010: .*infeasible"):
            regions.region_from_bits(net_x1, network.BitVector.from01("010"))
        with pytest.raises(
            DegenerateSystemError, match=r"^pattern 000: .*radius \S+ <= tau_dim 1e-07"
        ):
            regions.region_from_bits(net_x1, network.BitVector.from01("000"))


class TestBatch:
    @pytest.mark.parametrize("box", [False, True])
    def test_returns_exactly_the_patterns_a_stack_of_one_accepts(self, net_2331, box):
        # all 2^6 patterns in one batch: the regions of the patterns a stack
        # of one accepts, in input order and bit for bit; a stack of one
        # rejects each other pattern with a geometry error, which
        # region_from_bits, given the same box rows, raises
        h = net_2331.h
        patterns = [from_bits([(j >> i) & 1 for i in range(h)]) for j in range(2**h)]
        B, d = (np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 2.0)) if box else (None, None)
        want = []
        for bits in patterns:
            (A, c, radii, found), = regions._blocks(net_2331, [bits], B, d, lp.TAU_LP, lp.TAU_DIM)
            if found:
                want.append(found[0])
                got = regions.region_from_bits(net_2331, bits, B, d)
                assert region_bytes(got) == region_bytes(found[0])
                continue
            err = regions._ball_error(A[0], c[0], radii[0], lp.TAU_DIM)
            assert type(err) in (InfeasibleSystemError, DegenerateSystemError)
            with pytest.raises(type(err)) as raised:
                regions.region_from_bits(net_2331, bits, B, d)
            assert str(raised.value) == f"pattern {bits.to01()}: {err}"
        got = regions.regions_from_bits(net_2331, patterns, B, d)
        assert all(type(region) is regions.Region for region in got)
        assert [region_bytes(r) for r in got] == [region_bytes(r) for r in want]
        assert len(got) == (17 if box else 22)


class TestLpBudget:
    """One LP decides feasibility and full dimension and finds the interior
    witness; every other LP of region_from_bits is a redundancy test."""

    @pytest.fixture
    def lps_besides_redundancy(self, lp_counter):
        return lambda: lp_counter.solves - lp_counter.redundancy

    def test_accepted_pattern(self, net_2331, lps_besides_redundancy):
        bits = network.bit_vector(net_2331, np.array([0.3, -0.7]))
        regions.region_from_bits(net_2331, bits)
        assert lps_besides_redundancy() == 1

    def test_infeasible_pattern(self, net_x1, lps_besides_redundancy):
        with pytest.raises(InfeasibleSystemError):
            regions.region_from_bits(net_x1, network.BitVector.from01("010"))
        assert lps_besides_redundancy() == 1

    def test_lower_dimensional_pattern(self, net_x1, lps_besides_redundancy):
        with pytest.raises(DegenerateSystemError):
            regions.region_from_bits(net_x1, network.BitVector.from01("000"))
        assert lps_besides_redundancy() == 1

    def test_redundancy_lps_start_feasible_and_rays_spare_some(
        self, net_2331, monkeypatch
    ):
        rhs = []
        redundant_rows = lp.redundant_rows

        def recorded(A, b, rest, rows, tol, systems=None):
            # one LP per row, over the other rows its system's rest marks
            for s, i in zip(range(len(rows)) if systems is None else systems, rows):
                rhs.append(np.delete(b[s], i)[np.delete(rest[s], i)])
            return redundant_rows(A, b, rest, rows, tol, systems)

        monkeypatch.setattr(lp, "redundant_rows", recorded)
        bits = network.bit_vector(net_2331, np.array([0.3, -0.7]))
        regions.region_from_bits(net_2331, bits)
        A, c = full_system(net_2331, bits)
        norm = np.linalg.norm(A, axis=1)
        candidates = np.count_nonzero(
            (norm > 0) & ~regions._duplicate_rows(A[None], c[None], norm[None])[0]
        )
        # a right-hand side >= 0 puts the origin in the system: no phase 1
        assert all(np.all(r >= 0) for r in rhs)
        assert len(rhs) < candidates


    def test_no_lp_starts_from_a_negative_rhs(self, net_2331, lp_counter):
        # every pattern, accepted or not, with and without a box: the
        # simplex always starts from the slack basis, so no LP needs a
        # feasible start found first
        box = enumeration.BoxRegion(np.full(2, -1.0), np.full(2, 1.0))
        enumeration.enumerate_brute(net_2331)
        enumeration.enumerate_brute(net_2331, box=box)
        assert lp_counter.solves > 2**net_2331.h and lp_counter.pivots > 0
        assert min(lp_counter.min_rhs) >= 0

    def test_redundancy_lps_only_for_rows_no_certificate_decides(
        self, net_2331, lp_counter
    ):
        # every row the rays leave undecided takes one LP in the batch, and
        # none falls back to a second: 65 LPs over the net's 2^6 patterns
        undecided = 0
        for j in range(2**net_2331.h):
            bits = from_bits([(j >> i) & 1 for i in range(net_2331.h)])
            try:
                reg = regions.region_from_bits(net_2331, bits)
            except (InfeasibleSystemError, DegenerateSystemError):
                continue
            A, c = full_system(net_2331, bits)
            norm = np.linalg.norm(A, axis=1)
            rows = (norm > 0) & ~regions._duplicate_rows(A[None], c[None], norm[None])[0]
            A, b = A[rows], (c - A @ reg.interior)[rows]
            undecided += np.count_nonzero(~regions._ray_facets(A[None], b[None], lp.TAU_LP)[0])
        assert lp_counter.redundancy == undecided == 65


class TestNeighbors:
    def test_neighbors_are_real_regions(self, net_2331):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(2)
        reg = regions.region_of(net_2331, x)
        nbrs = neighbors(reg)
        assert len(nbrs) == len(reg.active_bits)
        for flipped in nbrs:
            # each candidate differs in exactly one position
            assert sum(
                bit(flipped, i) != bit(reg.bits, i) for i in range(net_2331.h)
            ) == 1

    def test_shared_facet_has_points(self, net_2331):
        rng = np.random.default_rng(19)
        x = rng.standard_normal(2)
        reg = regions.region_of(net_2331, x)
        k = reg.active_bits[0]
        A, c = full_system(net_2331, reg.bits)
        pts = facet_points(A, c, k, count=5, rng=rng)
        for p in pts:
            assert abs(A[k] @ p - c[k]) < 1e-7
            others = np.setdiff1d(np.arange(A.shape[0]), [k])
            assert np.all(A[others] @ p <= c[others] + 1e-9)
