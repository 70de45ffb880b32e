"""Dense simplex for the Chebyshev and redundancy LPs, with no phase 1.

All problems here are "maximize c.x subject to A x <= b" with free variables
(split into positive/negative parts internally).  Bland's rule guards
against cycling; the sizes involved (rows = hidden nodes, cols = input
dimension) keep the dense tableau cheap.

Every simplex run starts from the slack basis, so the right-hand sides it
sees are non-negative and there are no artificial variables.  The Chebyshev
LP has such right-hand sides by construction (see `chebyshev_center`);
`solve` translates a system with a negative right-hand side to a point that
LP finds.  `regions.essentialize` translates each region to its Chebyshev
center itself, so its redundancy LPs need no such start.

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
    OPTIMAL or UNBOUNDED; raises IterationLimitError on stall.  The scans
    read Python-float copies of the tableau, which hold the same values.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        entering = -1
        for j, cost in enumerate(T[-1, :-1].tolist()):
            if cost < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        col = T[:m, entering].tolist()
        rhs = T[:m, -1].tolist()
        order = basis.tolist()
        best_ratio = np.inf
        leave = -1
        for r in range(m):
            if col[r] > _PIVOT_TOL:
                ratio = rhs[r] / col[r]
                if ratio < best_ratio - _PIVOT_TOL or (
                    ratio < best_ratio + _PIVOT_TOL
                    and (leave < 0 or order[r] < order[leave])
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
    if np.min(c, initial=0.0) >= 0:
        return _solve_leq(obj, A, c)
    # start from a point of the system: translate it there
    try:
        z = chebyshev_center(A, c, r_cap=1.0)[0]
    except InfeasibleSystemError:
        return LpOutcome(INFEASIBLE)
    out = _solve_leq(obj, A, np.maximum(c - A @ z, 0.0))
    if out.status != OPTIMAL:
        return out
    x = out.witness + z
    return LpOutcome(OPTIMAL, float(obj @ x), x)


def _solve_leq(obj, A, b):
    """Simplex from the slack basis of A x <= b, which b >= 0 makes feasible."""
    m, n = A.shape
    if m == 0:
        if np.max(np.abs(obj), initial=0.0) <= _PIVOT_TOL:
            return LpOutcome(OPTIMAL, 0.0, np.zeros(n))
        return LpOutcome(UNBOUNDED)

    # standard form: A(u - v) + s = b with u, v, s >= 0
    T = np.zeros((m + 1, 2 * n + m + 1))
    T[:m, :n] = A
    T[:m, n: 2 * n] = -A
    T[:m, 2 * n: -1] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -obj
    T[-1, n: 2 * n] = obj
    basis = 2 * n + np.arange(m)
    status = _run_simplex(T, basis, 5000 + 200 * (2 * n + 2 * m))
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)
    x_full = np.zeros(2 * n + m)
    x_full[basis] = T[:m, -1]
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
    """Center and signed radius of the largest inscribed ball of {x : Ax <= c}.

    Maximizes a free r subject to a_i.x + |a_i| r <= c_i and r <= r_cap, so
    the LP is bounded even when the region contains arbitrarily large
    balls.  The radius is negative when the system is empty; below -TAU_LP
    that raises InfeasibleSystemError, as does a zero row 0 <= c_i with
    c_i < -TAU_LP.  The LP runs on r - r0 with r0 = min(r_cap, min_i
    c_i / |a_i|), whose right-hand sides are all non-negative.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    c = np.asarray(c, dtype=np.float64)
    n = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    zero = norms == 0
    bad = np.flatnonzero(zero & (c < -TAU_LP))
    if bad.size:
        i = int(bad[0])
        raise InfeasibleSystemError(
            f"Chebyshev LP is {INFEASIBLE}: row {i} is 0 <= {c[i]:.3g}"
        )
    A, c, norms = A[~zero], c[~zero], norms[~zero]
    m = c.size
    r0 = min(float(r_cap), float(np.min(c / norms, initial=np.inf)))
    rows = np.zeros((m + 1, n + 1))
    rows[:m, :n] = A
    rows[:m, n] = norms
    rows[m, n] = 1.0                          # r <= r_cap
    rhs = np.maximum(np.append(c - norms * r0, float(r_cap) - r0), 0.0)
    objective = np.zeros(n + 1)
    objective[-1] = 1.0
    out = solve(LinearProgram(objective, rows, rhs))
    radius = r0 + out.value
    if radius < -TAU_LP:
        raise InfeasibleSystemError(
            f"Chebyshev LP is {INFEASIBLE}: signed radius {radius:.3g} < 0, "
            f"the {m} rows have no common point"
        )
    return out.witness[:n], radius
