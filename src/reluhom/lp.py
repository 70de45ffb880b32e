"""Dense two-phase simplex for the Chebyshev and redundancy LPs.

All problems here are "maximize c.x subject to A x <= b" with free variables
(split into positive/negative parts internally).  Bland's rule guards
against cycling; the sizes involved (rows = hidden nodes, cols = input
dimension) keep the dense tableau cheap.  Phase 1 runs only when some
right-hand side is negative: the Chebyshev LP of an untranslated system
needs it, while `regions.essentialize` translates each system to its
Chebyshev center first, so its redundancy LPs start from the slack basis
(and a row that a ray from the center certifies gets no LP at all).

A row is redundant at tolerance `tol` when maximizing it over the other
rows gives at most its right-hand side plus `tol`; an unbounded maximum
keeps the row.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleSystemError,
    IterationLimitError,
)

TAU_LP = 1e-8    # feasibility / optimality tolerance
TAU_DIM = 1e-7   # Chebyshev radius above which a region counts as full-dimensional

_PIVOT_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective.x subject to A x <= c, with x free."""

    objective: np.ndarray
    A: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class LpOutcome:
    status: str
    value: float = None
    witness: np.ndarray = None


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(T, basis, max_iter):
    """Bland-rule simplex on a tableau whose last row is the reduced-cost row.

    Entries of the cost row below -_PIVOT_TOL admit improvement.  Returns
    OPTIMAL or UNBOUNDED; raises IterationLimitError on stall.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        costs = T[-1, :-1]
        entering = -1
        for j in range(costs.size):
            if costs[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        col = T[:m, entering]
        best_ratio = np.inf
        leave = -1
        for r in range(m):
            if col[r] > _PIVOT_TOL:
                ratio = T[r, -1] / col[r]
                if ratio < best_ratio - _PIVOT_TOL or (
                    ratio < best_ratio + _PIVOT_TOL
                    and (leave < 0 or basis[r] < basis[leave])
                ):
                    best_ratio = min(ratio, best_ratio)
                    leave = r
        if leave < 0:
            return UNBOUNDED
        _pivot(T, basis, leave, entering)
    raise IterationLimitError("simplex pivot limit exceeded")


def solve(lp):
    """Solve the LP; status is optimal, infeasible, or unbounded."""
    obj = np.asarray(lp.objective, dtype=np.float64)
    A = np.atleast_2d(np.asarray(lp.A, dtype=np.float64))
    c = np.asarray(lp.c, dtype=np.float64)
    n = obj.size
    if A.size == 0:
        A = A.reshape(0, n)
    if A.shape[1] != n or A.shape[0] != c.size:
        raise DimensionMismatch(
            f"LP shapes disagree: A {A.shape}, c {c.shape}, objective {obj.shape}"
        )
    return _solve_leq(obj, A, c)


def _solve_leq(obj, A, b):
    m, n = A.shape
    if m == 0:
        if np.max(np.abs(obj), initial=0.0) <= _PIVOT_TOL:
            return LpOutcome(OPTIMAL, 0.0, np.zeros(n))
        return LpOutcome(UNBOUNDED)

    # standard form: A(u - v) + s = b with u, v, s >= 0
    E = np.hstack([A, -A, np.eye(m)])
    rhs = b.astype(np.float64).copy()
    neg = rhs < 0
    E[neg] *= -1.0
    rhs[neg] *= -1.0
    art_rows = np.nonzero(neg)[0]
    n_art = art_rows.size
    ncols = 2 * n + m + n_art
    T = np.zeros((m + 1, ncols + 1))
    T[:m, : 2 * n + m] = E
    for k, r in enumerate(art_rows):
        T[r, 2 * n + m + k] = 1.0
    T[:m, -1] = rhs
    basis = np.empty(m, dtype=np.int64)
    basis[:] = 2 * n + np.arange(m)          # slacks
    basis[art_rows] = 2 * n + m + np.arange(n_art)

    max_iter = 5000 + 200 * (m + ncols)

    if n_art:
        # phase 1: maximize -(sum of artificials)
        T[-1, :] = 0.0
        T[-1, 2 * n + m:-1] = 1.0
        for r in art_rows:
            T[-1] -= T[r]
        status = _run_simplex(T, basis, max_iter)
        if status != OPTIMAL or T[-1, -1] < -TAU_LP:
            return LpOutcome(INFEASIBLE)
        # drive remaining artificials out of the basis
        keep_rows = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] >= 2 * n + m:
                done = False
                for j in range(2 * n + m):
                    if abs(T[r, j]) > _PIVOT_TOL:
                        _pivot(T, basis, r, j)
                        done = True
                        break
                if not done:
                    keep_rows[r] = False    # redundant row
        if not keep_rows.all():
            T = np.vstack([T[:m][keep_rows], T[-1:]])
            basis = basis[keep_rows]
            m = basis.size
        T = np.delete(T, np.s_[T.shape[1] - 1 - n_art: T.shape[1] - 1], axis=1)

    # phase 2
    full_obj = np.concatenate([obj, -obj, np.zeros(T.shape[1] - 1 - 2 * n)])
    T[-1, :-1] = -full_obj
    T[-1, -1] = 0.0
    for r in range(basis.size):
        coef = T[-1, basis[r]]
        if coef != 0.0:
            T[-1] -= coef * T[r]
    status = _run_simplex(T, basis, max_iter)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)
    x_full = np.zeros(T.shape[1] - 1)
    x_full[basis] = T[: basis.size, -1]
    x = x_full[:n] - x_full[n: 2 * n]
    return LpOutcome(OPTIMAL, float(obj @ x), x)


def is_redundant(A, c, i, tol=TAU_LP):
    """True iff row i is implied by the remaining rows.

    Maximizes a_i.x over the relaxed system; value <= c_i + tol means
    redundant, an unbounded relaxation means the row constrains.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    c = np.asarray(c, dtype=np.float64)
    if not 0 <= i < A.shape[0]:
        raise DimensionMismatch(f"row index {i} out of range")
    rest = np.delete(np.arange(A.shape[0]), i)
    out = solve(LinearProgram(A[i], A[rest], c[rest]))
    if out.status == UNBOUNDED:
        return False
    if out.status == INFEASIBLE:
        raise InfeasibleSystemError("relaxed system infeasible; input was not feasible")
    return out.value <= c[i] + tol


def chebyshev_center(A, c, r_cap):
    """Center and radius of the largest inscribed ball of {x : Ax <= c}.

    The radius is capped at r_cap, so the LP is bounded even when the
    region contains arbitrarily large balls.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    norms = np.linalg.norm(A, axis=1)
    rows = np.zeros((m + 2, n + 1))
    rows[:m, :n] = A
    rows[:m, n] = norms
    rows[m, n] = -1.0                         # r >= 0
    rows[m + 1, n] = 1.0                      # r <= r_cap
    rhs = np.concatenate([c, [0.0, float(r_cap)]])
    objective = np.zeros(n + 1)
    objective[-1] = 1.0
    out = solve(LinearProgram(objective, rows, rhs))
    if out.status == INFEASIBLE:
        raise InfeasibleSystemError(
            f"Chebyshev LP is {INFEASIBLE}: the {m} rows have no common point"
        )
    return out.witness[:n], float(out.value)
