import numpy as np
import pytest

from reluhom import lp
from reluhom.errors import DimensionMismatch, InfeasibleSystemError, IterationLimitError

SQUARE_A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
SQUARE_C = np.array([1.0, 0.0, 1.0, 0.0])


def maximize(obj, A, c):
    return lp.solve(lp.LinearProgram(np.asarray(obj, float), A, c))


def feasible(A, c):
    """The capped Chebyshev LP decides whether {x : Ax <= c} is non-empty."""
    try:
        lp.chebyshev_center(A, c, r_cap=1.0)
    except InfeasibleSystemError:
        return False
    return True


class TestSolve:
    def test_1d_box(self):
        out = maximize([1.0], [[1.0], [-1.0]], [2.0, 0.0])
        assert out.status == lp.OPTIMAL
        assert out.value == pytest.approx(2.0, abs=1e-8)

    def test_contradictory_bounds(self):
        out = maximize([1.0], [[1.0], [-1.0]], [0.0, -1.0])
        assert out.status == lp.INFEASIBLE

    def test_open_ray(self):
        out = maximize([1.0], [[-1.0]], [0.0])
        assert out.status == lp.UNBOUNDED

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            maximize([1.0, 2.0], [[1.0]], [0.0])

    def test_witness_feasible_and_optimal_vs_scipy(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(17)
        checked = 0
        while checked < 40:
            m, n = int(rng.integers(2, 12)), int(rng.integers(1, 4))
            A = rng.standard_normal((m, n))
            c = rng.standard_normal(m) + 1.0
            obj = rng.standard_normal(n)
            out = maximize(obj, A, c)
            if out.status != lp.OPTIMAL:
                continue
            assert np.all(A @ out.witness <= c + lp.TAU_LP)
            ref = linprog(-obj, A_ub=A, b_ub=c, bounds=[(None, None)] * n)
            assert ref.status == 0
            assert out.value == pytest.approx(-ref.fun, abs=1e-6)
            checked += 1

    def test_iteration_limit_reported(self):
        T = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(IterationLimitError):
            lp._run_simplex(T.copy(), np.array([0]), max_iter=0)


class TestFeasible:
    def test_unit_square(self):
        center, _ = lp.chebyshev_center(SQUARE_A, SQUARE_C, r_cap=1.0)
        assert np.all(SQUARE_A @ center <= SQUARE_C + lp.TAU_LP)

    def test_empty(self):
        assert not feasible(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))

    def test_sampled_point_is_witness(self):
        # a system built around a known point must be feasible
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal(3)
            A = rng.standard_normal((6, 3))
            c = A @ x + rng.uniform(0.1, 1.0, 6)
            center, radius = lp.chebyshev_center(A, c, r_cap=1.0)
            assert radius > 0
            assert np.all(A @ center <= c + lp.TAU_LP)


class TestRedundant:
    def test_dominated_row(self):
        A = np.vstack([SQUARE_A, [1.0, 0.0]])
        c = np.append(SQUARE_C, 2.0)
        assert lp.is_redundant(A, c, 4)

    def test_supporting_facet(self):
        assert not lp.is_redundant(SQUARE_A, SQUARE_C, 0)

    def test_unbounded_relaxation_is_non_redundant(self):
        # single half-space: removing its only row frees the whole plane
        assert not lp.is_redundant(np.array([[1.0, 0.0]]), np.array([1.0]), 0)

    def test_matches_vertex_oracle_in_2d(self):
        from itertools import combinations

        rng = np.random.default_rng(23)
        done = 0
        while done < 10:
            A = np.vstack([rng.standard_normal((4, 2)), SQUARE_A * 1])
            c = np.concatenate([rng.uniform(0.5, 1.5, 4), np.full(4, 5.0)])
            if not feasible(A, c):
                continue
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
                assert lp.is_redundant(A, c, i) == oracle
            done += 1

    def test_removal_preserves_geometry(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            A = np.vstack([rng.standard_normal((5, 2)), SQUARE_A])
            c = np.concatenate([rng.uniform(0.5, 2.0, 5), np.full(4, 3.0)])
            if not feasible(A, c):
                continue
            # the box keeps every inradius below the cap
            r0 = lp.chebyshev_center(A, c, r_cap=10.0)[1]
            for i in range(A.shape[0]):
                if lp.is_redundant(A, c, i):
                    A2 = np.delete(A, i, axis=0)
                    c2 = np.delete(c, i)
                    assert lp.chebyshev_center(A2, c2, r_cap=10.0)[1] == pytest.approx(
                        r0, abs=lp.TAU_LP * 10
                    )


class TestChebyshev:
    def test_unit_square(self):
        center, radius = lp.chebyshev_center(SQUARE_A, SQUARE_C, r_cap=1.0)
        assert radius == pytest.approx(0.5, abs=1e-8)
        assert center == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_line_in_2d(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        c = np.array([0.0, 0.0])
        assert lp.chebyshev_center(A, c, r_cap=1.0)[1] == pytest.approx(0.0, abs=1e-8)

    def test_halfspace_is_unbounded(self):
        # balls of any size fit, so the radius is the cap
        center, radius = lp.chebyshev_center(np.array([[1.0, 0.0]]), np.array([0.0]), r_cap=2.5)
        assert radius == pytest.approx(2.5)
        assert center[0] <= -2.5 + 1e-8

    def test_random_triangle_inradius(self):
        rng = np.random.default_rng(31)
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
            # a cap far above any of these inradii leaves the LP's optimum alone
            got = lp.chebyshev_center(np.array(rows), np.array(rhs), r_cap=100.0)[1]
            assert got == pytest.approx(inradius, rel=1e-6)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleSystemError):
            lp.chebyshev_center(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]), r_cap=1.0)
