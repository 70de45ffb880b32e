import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.optimize import linprog

from reluhom import lp, regions
from reluhom.errors import InfeasibleSystemError, IterationLimitError
from oracles import bland_leaving_row, bland_simplex, essential_rows_linprog, linprog_max

SQUARE_A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
SQUARE_C = np.array([1.0, 0.0, 1.0, 0.0])
# a 3-D system of inradius 0.36 in which HiGHS reports the maximum of row 2
# over the other five rows, an unbounded LP, as infeasible (status 2)
STATUS_2_A = np.array([
    [1.23, -0.23, -1.66], [-0.68, -0.66, -0.42], [1.08, 0.69, 1.63],
    [-0.79, 0.69, -0.86], [-0.91, -2.29, -0.68], [0.36, -0.27, 0.04],
])
STATUS_2_C = np.array([-0.59, 1.96, 0.64, -0.1, 2.65, 2.17])
# max x over three systems in one unknown: x <= 1 and x <= 2 (one pivot),
# -x <= 0 and 0 <= 1 (unbounded), and a zero objective (optimal at once)
MIXED_STACK = (np.array([[1.0], [1.0], [0.0]]),
               np.array([[[1.0], [1.0]], [[-1.0], [0.0]], [[1.0], [-1.0]]]),
               np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0]]))
# four systems in two unknowns that finish out of order: the last at once
# (a zero objective), the first after one pivot, the second unbounded at
# the same step (max x + y, x <= 1 and -y <= 0), the third after two pivots
OUT_OF_ORDER_STACK = (
    np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]),
    np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]],
              [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]),
    np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]]))


def redundant(A, c, tol=lp.TAU_LP):
    """`redundant_rows` of every row of A x <= c, one stack of len(c) systems,
    on the system translated to its Chebyshev center as
    `regions._essentialize` translates it."""
    z = lp.chebyshev_centers(A[None], c[None], r_cap=1.0)[0][0]
    b = c - A @ z
    m = len(c)
    return lp.redundant_rows(np.repeat(A[None], m, axis=0), np.repeat(b[None], m, axis=0),
                             ~np.eye(m, dtype=bool), np.arange(m), tol)[0]


def feasible(A, c):
    """The capped Chebyshev LP decides whether {x : Ax <= c} is non-empty."""
    radius = lp.chebyshev_centers(A[None], c[None], r_cap=1.0)[1][0]
    return radius >= -lp.TAU_LP


@st.composite
def systems(draw, count=None):
    """A x <= c in 1-3 D with right-hand sides of both signs, sometimes zero
    rows or a box; given a count strategy, that many such systems of one
    shape as a stack.

    Hypothesis draws the shape; the entries come from a seeded generator.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 8))
    k = () if count is None else (draw(count),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal(k + (m, n))
    A[rng.random(k + (m,)) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    c = rng.standard_normal(k + (m,)) + draw(st.sampled_from([-0.5, 0.0, 1.0]))
    if draw(st.booleans()):
        # a box around a random point bounds each system
        x0 = rng.standard_normal(k + (n,))
        eye = np.broadcast_to(np.eye(n), k + (n, n))
        A = np.concatenate([A, eye, -eye], axis=-2)
        c = np.concatenate(
            [c, x0 + rng.uniform(0.1, 2.0, k + (n,)), rng.uniform(0.1, 2.0, k + (n,)) - x0],
            axis=-1,
        )
    return A, c


@st.composite
def lp_stacks(draw):
    """(obj, A, b) of a stack of LPs from the slack basis, 1-6 rows in 1-3
    unknowns: Gaussian, small integers (ties, zero entries and right-hand
    sides) or Gaussian with inert zero rows; many are unbounded."""
    count, m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["gaussian", "integer", "inert"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer":
        return (rng.integers(-2, 3, (count, n)).astype(float),
                rng.integers(-2, 3, (count, m, n)).astype(float),
                rng.integers(0, 3, (count, m)).astype(float))
    A = rng.standard_normal((count, m, n))
    if kind == "inert":
        A[rng.random((count, m)) < 0.4] = 0.0
    b = rng.uniform(0.0, 2.0, (count, m)) * (rng.random((count, m)) > 0.3)
    return rng.standard_normal((count, n)), A, b


def full_width(T, basis, labels):
    """A stack of condensed tableaus at full width: column labels[p, j] of
    tableau p is its column j, and the column of basic variable basis[p, r]
    is the unit vector of row r (+0.0, with 1.0 in row r)."""
    count, rows, cols = T.shape
    assert np.array_equal(np.sort(np.concatenate([labels, basis], axis=1)),
                          np.tile(np.arange(rows + cols - 2), (count, 1)))
    full = np.zeros((count, rows, rows + cols - 1))
    p = np.arange(count)[:, None]
    full[p, :, labels] = T[:, :, :-1].transpose(0, 2, 1)
    full[p, np.arange(rows - 1), basis] = 1.0
    full[:, :, -1] = T[:, :, -1]
    return full


def solve(obj, A, b):
    """`_solve_leq` of a stack of LPs given as arrays."""
    return lp._solve_leq(lambda idx: (obj[idx], A[idx], b[idx]), len(b), *A.shape[1:])


def simplex_run(obj, A, b, width=None):
    """The tableaus, at full width, and basis `_solve_leq`'s simplex starts
    each LP from, where it leaves them, and its unbounded flags, with at
    most width LPs (one block by default) pivoting at once."""
    starts, ends, unbounded = {}, {}, {}
    simplex = lp._simplex

    def recorded(fill, count, shape, block, max_iter):
        rows, cols = shape
        slack = np.arange(cols - 1, cols + rows - 2), np.arange(cols - 1)

        def recording(idx, T):
            fill(idx, T)
            basis, labels = (np.tile(a, (len(idx), 1)) for a in slack)
            starts.update(zip(idx.tolist(), zip(full_width(T, basis, labels), basis)))

        for idx, T, basis, labels, ends_unbounded in simplex(
            recording, count, shape, width or block, max_iter
        ):
            ends.update(zip(idx.tolist(), zip(full_width(T, basis, labels), basis.copy())))
            unbounded.update(zip(idx.tolist(), ends_unbounded.tolist()))
            yield idx, T, basis, labels, ends_unbounded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_simplex", recorded)
        solve(obj, A, b)
    lps = range(len(b))
    assert starts.keys() == ends.keys() == unbounded.keys() == set(lps)
    return ((np.stack([starts[p][0] for p in lps]), np.stack([starts[p][1] for p in lps])),
            np.array([unbounded[p] for p in lps]),
            (np.stack([ends[p][0] for p in lps]), np.stack([ends[p][1] for p in lps])))


def stream_of(T):
    """A `_simplex` fill that copies the stack T's tableaus."""
    def fill(idx, out):
        out[:] = T[idx]
    return fill


def linprog_signed_radius(A, c):
    """Uncapped signed Chebyshev radius by linprog: inf when balls of any size
    fit, None when the system is empty (a zero row 0 <= c_i < 0)."""
    norms = np.linalg.norm(A, axis=1)
    obj = np.zeros(A.shape[1] + 1)
    obj[-1] = -1.0
    res = linprog(obj, A_ub=np.hstack([A, norms[:, None]]), b_ub=c,
                  bounds=[(None, None)] * obj.size, method="highs")
    assert res.status in (0, 2, 3), res.message
    return {0: -res.fun if res.status == 0 else None, 2: None, 3: np.inf}[res.status]


class TestSolve:
    def test_1d_box(self):
        # max x over 0 <= x <= 2, and over 0 <= x <= 0.5, as one stack
        A = np.array([[[1.0], [-1.0]]] * 2)
        unbounded, x = solve(np.ones((2, 1)), A, np.array([[2.0, 0.0], [0.5, 0.0]]))
        assert unbounded.tolist() == [False, False]
        assert x[:, 0] == pytest.approx([2.0, 0.5], abs=1e-8)

    def test_contradictory_bounds(self):
        # x <= 0 and x >= 1: the stack's first system has negative radius
        radii = lp.chebyshev_centers(np.array([[[1.0], [-1.0]]] * 2),
                                     np.array([[0.0, -1.0], [1.0, 0.0]]), r_cap=1.0)[1]
        assert radii == pytest.approx([-0.5, 0.5], abs=1e-8)

    def test_open_ray(self):
        # max x over x >= 0 is unbounded, over x <= 1 it is 1
        unbounded, x = solve(np.ones((2, 1)), np.array([[[-1.0]], [[1.0]]]),
                             np.array([[0.0], [1.0]]))
        assert unbounded.tolist() == [True, False]
        assert x[1, 0] == pytest.approx(1.0, abs=1e-8)

    def test_witness_feasible_and_optimal_vs_scipy(self):
        # stacks of LPs from the slack basis (b >= 0, some rows tight at the
        # origin), each optimum checked against linprog's
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 40:
            count, m, n = int(rng.integers(2, 6)), int(rng.integers(2, 12)), int(rng.integers(1, 4))
            A = rng.standard_normal((count, m, n))
            b = rng.uniform(0.0, 2.0, (count, m)) * (rng.random((count, m)) > 0.2)
            obj = rng.standard_normal((count, n))
            unbounded, x = solve(obj, A, b)
            for p in range(count):
                ref = linprog(-obj[p], A_ub=A[p], b_ub=b[p], bounds=[(None, None)] * n,
                              method="highs")
                assert ref.status == (3 if unbounded[p] else 0), ref.message
                if unbounded[p]:
                    continue
                assert np.all(A[p] @ x[p] <= b[p] + lp.TAU_LP)
                assert obj[p] @ x[p] == pytest.approx(-ref.fun, abs=1e-6)
                checked += 1

    def test_iteration_limit_reported(self):
        # max x0 subject to x0 + x1 = 0, x1 basic: x0 enters, but no pivot may run
        T = np.array([[[1.0, 0.0], [-1.0, 0.0]]])
        with pytest.raises(IterationLimitError, match="simplex pivot limit exceeded"):
            list(lp._simplex(stream_of(T), 1, (2, 2), 1, max_iter=0))

    def test_iteration_limit_counts_each_lps_own_pivots(self):
        # max x over x <= 1 takes one pivot, max x + y over x, y <= 1 two: a
        # long stream of the first, one at a time, stays within one pivot
        # each, while the second alone does not
        one = np.array([[[1.0, 1.0], [-1.0, 0.0]]] * 50)
        two = np.array([[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 0.0]]])
        for width in (1, 7, 50):
            stream = lp._simplex(stream_of(one), 50, (2, 2), width, max_iter=1)
            assert sorted(p for idx, *_ in stream for p in idx.tolist()) == list(range(50))
        with pytest.raises(IterationLimitError, match="simplex pivot limit exceeded"):
            list(lp._simplex(stream_of(two), 1, (3, 3), 1, max_iter=1))
        assert len(list(lp._simplex(stream_of(two), 1, (3, 3), 1, max_iter=2))) == 1


class TestFeasible:
    def test_unit_square(self):
        center = lp.chebyshev_centers(SQUARE_A[None], SQUARE_C[None], r_cap=1.0)[0][0]
        assert np.all(SQUARE_A @ center <= SQUARE_C + lp.TAU_LP)

    def test_empty(self):
        assert not feasible(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))

    def test_sampled_point_is_witness(self):
        # systems built around known points must be feasible, as one stack
        rng = np.random.default_rng(2)
        A, c = [], []
        for _ in range(10):
            x = rng.standard_normal(3)
            A.append(rng.standard_normal((6, 3)))
            c.append(A[-1] @ x + rng.uniform(0.1, 1.0, 6))
        A, c = np.stack(A), np.stack(c)
        centers, radii = lp.chebyshev_centers(A, c, r_cap=1.0)
        assert np.all(radii > 0)
        assert np.all((A @ centers[:, :, None])[:, :, 0] <= c + lp.TAU_LP)


class TestRedundant:
    def test_dominated_row(self):
        A = np.vstack([SQUARE_A, [1.0, 0.0]])
        c = np.append(SQUARE_C, 2.0)
        assert redundant(A, c).tolist() == [False] * 4 + [True]

    def test_supporting_facet(self):
        assert not redundant(SQUARE_A, SQUARE_C).any()

    def test_unbounded_relaxation_is_non_redundant(self):
        # single half-space: removing its only row frees the whole plane
        assert redundant(np.array([[1.0, 0.0]]), np.array([1.0])).tolist() == [False]

    @given(systems(), st.sampled_from([lp.TAU_LP, 0.05]))
    def test_matches_linprog(self, system, tol):
        A, c = system
        radius = linprog_signed_radius(A, c)
        assume(radius is not None and radius > 1e-6)
        got = redundant(A, c, tol)
        for i in range(len(c)):
            rest = np.delete(np.arange(len(c)), i)
            value = linprog_max(A[i], A[rest], c[rest])
            if value == np.inf:
                assert not got[i]
                continue
            # keep clear of rows within rounding of the tolerance
            assume(abs(value - c[i] - tol) > 1e-6)
            assert got[i] == (value <= c[i] + tol)

    def test_highs_status_2_over_feasible_rows_reads_as_unbounded(self):
        A, c = STATUS_2_A, STATUS_2_C
        assert linprog_signed_radius(A, c) > 0.3
        rest = np.delete(np.arange(6), 2)
        ref = linprog(-A[2], A_ub=A[rest], b_ub=c[rest], bounds=[(None, None)] * 3,
                      method="highs")
        assert ref.status == 2
        # the five rows hold a point, so the oracle reads the LP as unbounded
        assert linprog_max(A[2], A[rest], c[rest]) == np.inf
        # rows 2 and 3 are unbounded over the others, rows 1 and 5 redundant
        assert redundant(A, c).tolist() == [False, True, False, False, False, True]
        assert essential_rows_linprog(A, c, lp.TAU_LP) == [0, 2, 3, 4]

    def test_matches_vertex_oracle_in_2d(self):
        from itertools import combinations

        rng = np.random.default_rng(23)
        done = 0
        while done < 10:
            A = np.vstack([rng.standard_normal((4, 2)), SQUARE_A * 1])
            c = np.concatenate([rng.uniform(0.5, 1.5, 4), np.full(4, 5.0)])
            if not feasible(A, c):
                continue
            got = redundant(A, c)
            for i in range(4):
                rest = np.delete(np.arange(A.shape[0]), i)
                verts = []
                for p, q in combinations(rest, 2):
                    M = A[[p, q]]
                    if abs(np.linalg.det(M)) < 1e-10:
                        continue
                    v = np.linalg.solve(M, c[[p, q]])
                    if np.all(A[rest] @ v <= c[rest] + 1e-9):
                        verts.append(v)
                oracle = max(A[i] @ v for v in verts) <= c[i] + 1e-7
                assert got[i] == oracle
            done += 1

    def test_removal_preserves_geometry(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            A = np.vstack([rng.standard_normal((5, 2)), SQUARE_A])
            c = np.concatenate([rng.uniform(0.5, 2.0, 5), np.full(4, 3.0)])
            if not feasible(A, c):
                continue
            # the box keeps every inradius below the cap; the system and,
            # padded with an inert zero row 0 <= 1, the system without each
            # of its redundant rows form one stack
            dropped = np.flatnonzero(redundant(A, c))
            A2 = np.stack([A] + [np.vstack([np.delete(A, i, axis=0), np.zeros(2)])
                                 for i in dropped])
            c2 = np.stack([c] + [np.append(np.delete(c, i), 1.0) for i in dropped])
            r0, *radii = lp.chebyshev_centers(A2, c2, r_cap=10.0)[1]
            assert radii == pytest.approx([r0] * len(dropped), abs=lp.TAU_LP * 10)


class TestChebyshev:
    def test_unit_square(self):
        centers, radii = lp.chebyshev_centers(SQUARE_A[None], SQUARE_C[None], r_cap=1.0)
        assert radii == pytest.approx([0.5], abs=1e-8)
        assert centers[0] == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_line_in_2d(self):
        A = np.array([[[1.0, 0.0], [-1.0, 0.0]]])
        c = np.array([[0.0, 0.0]])
        assert lp.chebyshev_centers(A, c, r_cap=1.0)[1] == pytest.approx([0.0], abs=1e-8)

    def test_halfspace_is_unbounded(self):
        # balls of any size fit, so the radius is the cap
        centers, radii = lp.chebyshev_centers(np.array([[[1.0, 0.0]]]), np.array([[0.0]]),
                                              r_cap=2.5)
        assert radii == pytest.approx([2.5])
        assert centers[0, 0] <= -2.5 + 1e-8

    def test_random_triangle_inradius(self):
        rng = np.random.default_rng(31)
        A, c, want = [], [], []
        for _ in range(10):
            pts = rng.standard_normal((3, 2)) * 2
            u, v = pts[1] - pts[0], pts[2] - pts[0]
            area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
            if area < 0.1:
                continue
            per = sum(
                np.linalg.norm(pts[i] - pts[(i + 1) % 3]) for i in range(3)
            )
            inradius = 2 * area / per
            centroid = pts.mean(axis=0)
            rows, rhs = [], []
            for i in range(3):
                e = pts[(i + 1) % 3] - pts[i]
                normal = np.array([e[1], -e[0]])
                if normal @ (centroid - pts[i]) > 0:
                    normal = -normal
                rows.append(normal)
                rhs.append(normal @ pts[i])
            A.append(rows)
            c.append(rhs)
            want.append(inradius)
        # one stack; a cap far above any of these inradii leaves the LPs' optima alone
        got = lp.chebyshev_centers(np.array(A), np.array(c), r_cap=100.0)[1]
        assert got == pytest.approx(want, rel=1e-6)

    @given(systems(count=st.integers(1, 4)), st.sampled_from([0.25, 1.0, 10.0]))
    def test_capped_signed_radius_matches_linprog(self, stack, r_cap):
        # each system of the stack against linprog on that system alone
        refs = [linprog_signed_radius(A, c) for A, c in zip(*stack)]
        assume(all(radius is None or abs(radius) > 1e-6 for radius in refs))
        centers, radii = lp.chebyshev_centers(*stack, r_cap=r_cap)
        for A, c, radius, center, got in zip(*stack, refs, centers, radii):
            # empty exactly when linprog finds no point of the system
            empty = radius is None or radius < 0
            feasible = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=c,
                               bounds=[(None, None)] * A.shape[1], method="highs")
            assert empty == (feasible.status == 2)
            if empty:
                assert got < -lp.TAU_LP
                err = regions._ball_error(A, c, got, lp.TAU_DIM)
                assert isinstance(err, InfeasibleSystemError) and "infeasible" in str(err)
                continue
            assert got >= -lp.TAU_LP
            assert got == pytest.approx(min(radius, r_cap), rel=1e-7, abs=1e-9)
            norms = np.linalg.norm(A, axis=1)
            assert np.all(A @ center + norms * got <= c + 1e-7)

    def test_zero_rows(self):
        # 0 <= 1 leaves the unit square's inradius alone; 0 <= -1 is empty
        A = np.vstack([SQUARE_A, [0.0, 0.0]])
        c = np.stack([np.append(SQUARE_C, 1.0), np.append(SQUARE_C, -1.0)])
        radii = lp.chebyshev_centers(np.stack([A, A]), c, r_cap=1.0)[1]
        assert radii == pytest.approx([0.5, -np.inf], abs=1e-8)
        assert radii[0] >= -lp.TAU_LP
        err = regions._ball_error(A, c[1], radii[1], lp.TAU_DIM)
        assert isinstance(err, InfeasibleSystemError) and "row 4 is 0 <= -1" in str(err)

    def test_infeasible_raises(self):
        # x <= -1 and x >= 0: the error each caller raises for an empty system
        A, c = np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0])
        radius = lp.chebyshev_centers(A[None], c[None], r_cap=1.0)[1][0]
        assert radius < -lp.TAU_LP
        assert isinstance(regions._ball_error(A, c, radius, lp.TAU_DIM), InfeasibleSystemError)


class TestKernel:
    """The batched ratio test picks, for every tableau of a stack, the row
    that the sequential Bland scan picks for that tableau alone."""

    def test_leaving_rows_of_degenerate_tableaus(self):
        tol = lp._PIVOT_TOL
        col = np.array([
            [1.0, 1.0, 1.0, 0.0],            # rows 1, 2 tied at ratio 0
            [1.0, 1.0, 1.0, 1.0],            # a chain of ratios tol / 0.6 apart
            [0.5, 2.0, 1.0, 4.0],            # ratios 2, 0.5, 3, 0.25: no tie
            [tol, -1.0, 0.0, tol / 2],       # no entry above tol: unbounded
        ])
        rhs = np.array([
            [0.5, 0.0, 0.0, 0.0],
            [1.0, 1.0 - 0.6 * tol, 1.0 - 1.2 * tol, 1.0 - 1.8 * tol],
            [1.0, 1.0, 3.0, 1.0],
            [0.0, 1.0, 1.0, 1.0],
        ])
        basis = np.array([[9, 8, 7, 6], [0, 1, 2, 3], [5, 6, 7, 8], [3, 4, 5, 6]])
        # the tie at 0 goes to row 2's lower basic index; in the chain, row 2
        # undercuts row 0 by more than tol but row 3 only row 2's ratio
        want = [2, 2, 3, -1]
        assert [bland_leaving_row(c, r, o, tol) for c, r, o in zip(col, rhs, basis)] == want
        assert lp._leaving(col, rhs, basis).tolist() == want

    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_leaving_rows_match_the_sequential_scan(self, count, m, seed):
        # ratios on a grid of steps below, at and above _PIVOT_TOL, so that
        # near ties are common
        rng = np.random.default_rng(seed)
        tol = lp._PIVOT_TOL
        col = rng.choice([-1.0, 0.0, tol, 0.5, 1.0, 2.0], size=(count, m))
        ratio = rng.integers(0, 4, size=(count, m)) * rng.choice([0.4, 1.0, 1.6]) * tol
        rhs = np.abs(col) * (rng.choice([0.0, 1.0]) + ratio)
        basis = np.array([rng.permutation(20)[:m] for _ in range(count)])
        want = [bland_leaving_row(c, r, o, tol) for c, r, o in zip(col, rhs, basis)]
        assert lp._leaving(col, rhs, basis).tolist() == want

    def test_inert_rows_change_no_pivot(self):
        # an LP, and the same LP with zero rows (right-hand side 0 or 1)
        # spliced in, pivot alike and end at the same point
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.standard_normal((6, 3))
            b = rng.uniform(0.0, 1.0, 6)
            b[rng.random(6) < 0.3] = 0.0          # degenerate vertices
            obj = rng.standard_normal(3)
            spliced = np.insert(A, [0, 2, 2, 6], 0.0, axis=0)
            b_spliced = np.insert(b, [0, 2, 2, 6], [0.0, 1.0, 0.0, 1.0])
            unbounded, x = solve(np.stack([obj, obj]),
                                 np.stack([np.vstack([A, np.zeros((4, 3))]), spliced]),
                                 np.stack([np.append(b, np.ones(4)), b_spliced]))
            alone = solve(obj[None], A[None], b[None])
            assert unbounded.tolist() == [alone[0][0]] * 2
            if not alone[0][0]:
                assert np.array_equal(x[0], alone[1][0]) and np.array_equal(x[1], alone[1][0])

    @given(lp_stacks())
    @example((np.zeros((3, 2)), np.ones((3, 4, 2)), np.ones((3, 4))))   # all optimal
    @example(MIXED_STACK)
    @example(OUT_OF_ORDER_STACK)
    def test_stacked_pivots_match_one_tableau_at_a_time(self, stack):
        # every bit of every tableau, zero signs included, and every basis
        (T0, basis0), unbounded, (T, basis) = simplex_run(*stack)
        for p in range(len(T)):
            rows, order = T0[p].tolist(), basis0[p].tolist()
            assert bland_simplex(rows, order, lp._PIVOT_TOL, 10**4)[0] == unbounded[p]
            assert np.array(rows).tobytes() == T[p].tobytes()
            assert order == basis[p].tolist()

    @given(lp_stacks())
    @example(MIXED_STACK)
    @example(OUT_OF_ORDER_STACK)
    def test_refilled_stacks_pivot_each_lp_as_alone(self, stack):
        # at every width, each LP's slot refilled from the rest of the stream
        # as LPs finish: every bit of every tableau, every basis and label,
        # and every unbounded flag as the LP alone gets them
        for width in range(1, len(stack[0]) + 1):
            (T0, basis0), unbounded, (T, basis) = simplex_run(*stack, width=width)
            for p in range(len(T)):
                rows, order = T0[p].tolist(), basis0[p].tolist()
                assert bland_simplex(rows, order, lp._PIVOT_TOL, 10**4)[0] == unbounded[p]
                assert np.array(rows).tobytes() == T[p].tobytes()
                assert order == basis[p].tolist()

    def test_finished_lps_take_no_ratio_test(self, monkeypatch):
        widths = []
        leaving = lp._leaving

        def recorded(col, rhs, basis):
            widths.append(len(col))
            return leaving(col, rhs, basis)

        monkeypatch.setattr(lp, "_leaving", recorded)
        rng = np.random.default_rng(3)
        solve(np.zeros((3, 2)), rng.standard_normal((3, 4, 2)), np.ones((3, 4)))
        assert widths == []
        # each step tests the LPs that still have an improving column: those
        # that pivot at that step, and those it finds unbounded
        for obj, A, b in [MIXED_STACK, (rng.standard_normal((8, 3)),
                                        rng.standard_normal((8, 6, 3)), np.ones((8, 6)))]:
            (T0, basis0), *_ = simplex_run(obj, A, b)
            steps = [pivots + unbounded for unbounded, pivots in (
                bland_simplex(T.tolist(), order.tolist(), lp._PIVOT_TOL, 10**4)
                for T, order in zip(T0, basis0))]
            widths.clear()
            solve(obj, A, b)
            assert widths == [sum(s > step for s in steps) for step in range(max(steps))]
