"""Dense simplex for the Chebyshev and redundancy LPs, with no phase 1.

The layer answers the pipeline's two questions for a stack of same-shape
systems at once: `chebyshev_centers` (is a region full-dimensional, and
where is an interior point) and `redundant_rows` (which rows are facets).
It returns numbers only: `regions._ball_error` turns a rejected system's
signed radius into its geometry error.

All problems here are "maximize c.x subject to A x <= b" with free variables
(split into positive/negative parts internally).  One Bland-rule kernel
pivots a stack of same-shape tableaus at once, each exactly as it would
pivot alone; an LP leaves the stack as soon as it is optimal, before the
ratio test.  A row an LP does not use stays in place as an inert row
(zero coefficients, right-hand side >= 0): it never enters or leaves the
basis and leaves Bland's order over the other rows alone.

A stack pivots in one working copy of its tableaus, bases and labels,
whose unfinished LPs are a prefix: each step works on views of it, and
LPs that finish move behind it by one stable permutation.  Each LP's
final state goes back to the caller's arrays once, when the last LP of
the stack finishes.

The tableaus are condensed (Chvatal, "Linear Programming", 1983, ch. 2-3):
an LP of m rows in n unknowns keeps its 2 n nonbasic columns and its
right-hand side, (m + 1) x (2 n + 1) entries against (m + 1) x (2 n + m +
1) at full width, and a label per column names the variable it holds.
A full tableau's basic columns are exact unit vectors (see `_pivot`), so
the condensed one holds every other entry of it bit for bit, and the
least improving label is the full tableau's first improving column.  On
a 3-D net of 10 hidden nodes a redundancy tableau is 11 x 7 and a
Chebyshev tableau 12 x 9, against 11 x 17 and 12 x 20.

Every simplex run starts from the slack basis, so the right-hand sides it
sees are non-negative and there are no artificial variables.  The Chebyshev
LP has such right-hand sides by construction (see `chebyshev_centers`);
`regions._essentialize` translates each region to its Chebyshev center
before its redundancy LPs.

A row is redundant at tolerance `tol` when maximizing it over the other
rows gives at most its right-hand side plus `tol`; an unbounded maximum
keeps the row.  `redundant_rows` also returns each LP's optimum, from which
`regions._essentialize` settles a whole batch of rows by the sequential
rule.
"""

import numpy as np

from .errors import IterationLimitError

TAU_LP = 1e-8    # feasibility / optimality tolerance
TAU_DIM = 1e-7   # Chebyshev radius above which a region counts as full-dimensional

_PIVOT_TOL = 1e-9


def _pivot(T, basis, labels, rows, cols):
    """Pivot condensed tableau p of the stack on entry (rows[p], cols[p]),
    for every p.  The leaving variable basis[p, rows[p]] takes column
    cols[p], which first becomes its unit column, and the update is then
    the full tableau's.  Entries are finite (so are the weights, and b = c
    - A z), so a full tableau's pivot column would come out exactly 0 (t -
    t * 1) and its pivot entry 1 (x / x): the columns left out are exact
    unit vectors, and the kept ones get every bit a full tableau's get."""
    k = np.arange(len(T))
    colvals = T[k, :, cols, None]                          # (stack, rows, 1)
    T[k, :, cols] = 0.0
    T[k, rows, cols] = 1.0
    prow = T[k, rows, None] / colvals[k, rows, None]       # (stack, 1, columns)
    T[k, rows, None] = prow
    colvals[k, rows] = 0.0
    T -= colvals * prow
    basis[k, rows], labels[k, cols] = labels[k, cols], basis[k, rows]


def _scan(col, rhs, order):
    """Bland's sequential ratio test on one tableau: the leaving row, ties
    within _PIVOT_TOL going to the lower basic index."""
    best, leave = np.inf, -1
    for r in range(len(col)):
        if col[r] > _PIVOT_TOL:
            ratio = rhs[r] / col[r]
            if ratio < best - _PIVOT_TOL or (
                ratio < best + _PIVOT_TOL and (leave < 0 or order[r] < order[leave])
            ):
                best, leave = min(ratio, best), r
    return leave


def _leaving(col, rhs, basis):
    """Each tableau's leaving row for entering column col (-1: unbounded,
    no finite ratio, as `_scan` finds too): with no other ratio within 2
    _PIVOT_TOL of the least, `_scan` picks the first least, as argmin
    does; a near tie is scanned."""
    ratio = np.divide(rhs, col, out=np.full(col.shape, np.inf), where=col > _PIVOT_TOL)
    leave = ratio.argmin(axis=1)
    least = ratio[np.arange(len(leave)), leave, None]
    near = ratio <= least + 2 * _PIVOT_TOL
    leave[least[:, 0] == np.inf] = -1
    if np.count_nonzero(near) > len(leave):
        for p in np.flatnonzero((near.sum(axis=1) > 1) & (leave >= 0)).tolist():
            leave[p] = _scan(col[p].tolist(), rhs[p].tolist(), basis[p].tolist())
    return leave


def _front(work, place, keep):
    """Reorder the first len(keep) LPs of work (T, basis, labels) by one
    stable permutation that puts those keep marks first and the others
    right behind them.  place[i] is the caller's index of work's LP i, and
    None while work is the caller's own arrays, which are never reordered:
    the first call gathers the working copy.  Returns work and place."""
    perm = np.argsort(~keep, kind="stable")
    if place is None:
        return tuple(a[perm] for a in work), perm
    for a in (*work, place):
        a[:len(keep)] = a[perm]
    return work, place


def _simplex(T, basis, labels, max_iter):
    """Bland-rule simplex on a stack of condensed tableaus, each with its
    cost row and right-hand side last.

    Column j of tableau p holds nonbasic variable labels[p, j], and row r
    basic variable basis[p, r]; the basic columns, unit vectors, are not
    stored.  The improving column (cost below -_PIVOT_TOL) of least label
    enters.  An LP finishes as soon as it is optimal, before the ratio
    test, or when the ratio test finds it unbounded.

    The stack pivots in one working copy whose first n LPs are the
    unfinished ones, and each step works on views of that live prefix.
    When LPs finish, `_front` moves them behind it; the first time, it
    gathers the copy, and T, basis and labels are left alone until the
    last LP finishes.  Then each LP's final tableau, basis and labels go
    back to them at once.  Returns which LPs are unbounded; raises
    IterationLimitError when an LP has not finished after max_iter pivots.
    """
    unbounded = np.zeros(len(T), dtype=bool)
    work = W, B, L = T, basis, labels
    place = None
    n = len(T)
    k = np.arange(n)
    above = T.shape[1] + T.shape[2]     # more than any label
    for _ in range(max_iter):
        improving = W[:n, -1, :-1] < -_PIVOT_TOL
        enter = np.where(improving, L[:n], above).argmin(axis=1)
        go = improving[k, enter]
        if np.count_nonzero(go) < n:
            n = np.count_nonzero(go)
            if not n:
                break
            work, place = _front(work, place, go)
            W, B, L = work
            enter, k = enter[go], k[:n]
        leave = _leaving(W[k, :-1, enter], W[:n, :-1, -1], B[:n])
        if np.count_nonzero(leave < 0):
            go = leave >= 0
            unbounded[(k if place is None else place[:n])[~go]] = True
            n = np.count_nonzero(go)
            if not n:
                break
            work, place = _front(work, place, go)
            W, B, L = work
            enter, leave, k = enter[go], leave[go], k[:n]
        _pivot(W[:n], B[:n], L[:n], leave, enter)
    else:
        raise IterationLimitError("simplex pivot limit exceeded")
    if place is not None:
        T[place], basis[place], labels[place] = work
    return unbounded


def _solve_leq(obj, A, b):
    """Simplex from the slack basis of each A x <= b of a stack (b >= 0):
    which LPs are unbounded, and the optimal points of the others."""
    count, m, n = A.shape
    if m == 0 or count == 0:
        return np.max(np.abs(obj), axis=1, initial=0.0) > _PIVOT_TOL, np.zeros((count, n))
    # standard form A(u - v) + s = b with u, v, s >= 0; the slacks s start basic
    T = np.zeros((count, m + 1, 2 * n + 1))
    T[:, :m, :n] = A
    T[:, :m, n: -1] = -A
    T[:, :m, -1] = b
    T[:, -1, :n] = -obj
    T[:, -1, n: -1] = obj
    basis = np.tile(2 * n + np.arange(m), (count, 1))
    labels = np.tile(np.arange(2 * n), (count, 1))
    unbounded = _simplex(T, basis, labels, 5000 + 200 * (2 * n + 2 * m))
    x_full = np.zeros((count, 2 * n + m))
    x_full[np.arange(count)[:, None], basis] = T[:, :m, -1]
    return unbounded, x_full[:, :n] - x_full[:, n: 2 * n]


def redundant_rows(A, b, rest, rows, tol=TAU_LP):
    """Whether row rows[p] of each A[p] y <= b[p] of a stack is redundant
    against the rows rest[p] marks (b >= 0 there), and the point where
    each LP ends (its optimum when bounded); the other rows are inert."""
    k = np.arange(len(rows))
    obj = A[k, rows]
    unbounded, x = _solve_leq(obj, np.where(rest[:, :, None], A, 0.0), np.where(rest, b, 0.0))
    # (1, n) @ (n, 1) rounds as the dot product obj @ x does
    value = (obj[:, None, :] @ x[:, :, None])[:, 0, 0]
    return ~unbounded & (value <= b[k, rows] + tol), x


def chebyshev_centers(A, c, r_cap):
    """Centers and signed radii of the largest inscribed balls of a stack of systems.

    One LP per system {x : A x <= c} maximizes a free r subject to a_i.x +
    |a_i| r <= c_i and r <= r_cap, so it is bounded even when the region
    contains arbitrarily large balls.  The radius is negative when the
    system is empty, -inf (with no LP) when a zero row reads 0 <= c_i <
    -TAU_LP.  The LP runs on r - r0 with r0 = min(r_cap, min_i c_i / |a_i|),
    whose right-hand sides are all non-negative; zero rows are inert.
    """
    count, m, n = A.shape
    norms = np.linalg.norm(A, axis=2)
    zero = norms == 0
    quot = np.divide(c, norms, out=np.full(c.shape, np.inf), where=~zero)
    r0 = np.minimum(float(r_cap), np.min(quot, axis=1, initial=np.inf))
    rows = np.zeros((count, m + 1, n + 1))
    rows[:, :m, :n] = A
    rows[:, :m, n] = norms
    rows[:, m, n] = 1.0                           # r <= r_cap
    rhs = np.append(c - norms * r0[:, None], (float(r_cap) - r0)[:, None], axis=1)
    centers, radii = np.zeros((count, n)), np.full(count, -np.inf)
    ok = np.flatnonzero(~(zero & (c < -TAU_LP)).any(axis=1))
    objective = np.broadcast_to(np.eye(n + 1)[n], (ok.size, n + 1))
    _, x = _solve_leq(objective, rows[ok], np.maximum(rhs[ok], 0.0))
    centers[ok], radii[ok] = x[:, :n], r0[ok] + x[:, n]
    return centers, radii

