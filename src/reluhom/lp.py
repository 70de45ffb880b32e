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

A batch of LPs runs as one stream through a stack of at most one block
(`_kernels.BLOCK_BYTES`) of tableaus.  The stack pivots in one working
copy of its tableaus, bases and labels, whose unfinished LPs are a
prefix: each step works on views of it, LPs that finish move behind it
by one stable permutation and are read off there, and the free slots are
refilled from the batch, whose inputs are gathered and whose tableaus are
built a chunk at a time.  So a stream takes about as many pivot steps as
its LPs' pivots fill, not the slowest LP of every block, and no more than
one block of tableaus exists.

A batch of LPs is an `LPs` (`chebyshev_lps`, `redundancy_lps`), which
`chebyshev_centers` and `redundant_rows` run alone; `chebyshev_batch`
poses the Chebyshev LPs of systems its caller builds a chunk at a time.
`stream` runs several batches as one stream in the shape of the
largest: a redundancy LP of m rows in n unknowns goes into a
Chebyshev-shaped (m + 2) x (2 n + 3) slot as the same LP plus one zero
unknown and one inert row, and pivots bit for bit as alone.  A stream
pays a fixed cost per pivot step whatever its width, so one stream of
both kinds takes fewer steps than one of each.

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

from typing import Callable, NamedTuple

import numpy as np

from . import _kernels
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


def _front(work, n, keep):
    """Reorder the first n LPs of each array of work by one stable
    permutation that puts those keep marks first and the others right
    behind them, and return how many keep marks."""
    perm = np.argsort(~keep, kind="stable")
    for a in work:
        a[:n] = a[perm]
    return np.count_nonzero(keep)


def _simplex(fill, count, shape, width, max_iter):
    """Bland-rule simplex on a stream of count condensed tableaus of one
    shape, each with its cost row and right-hand side last, from the slack
    basis; at most width of them pivot at once.

    Column j of tableau p holds nonbasic variable labels[p, j], and row r
    basic variable basis[p, r]; the basic columns, unit vectors, are not
    stored.  The improving column (cost below -_PIVOT_TOL) of least label
    enters.  An LP finishes as soon as it is optimal, before the ratio
    test, or when the ratio test finds it unbounded.

    The stack pivots in one working copy of width slots whose first n
    LPs are the unfinished ones, and each step works on views of that live
    prefix.  When LPs finish, `_front` moves them right behind it.
    fill(idx, T) writes the starting tableaus of the batch's LPs idx into
    T, a view of free slots: whenever a slot is free and LPs are left, the
    finished LPs are handed over and the next LPs of the batch fill their
    slots in one chunk, so the working copy is all the tableaus that ever
    exist.  The generator hands finished LPs over as their batch indices,
    final tableaus, bases and labels (views of the working copy, refilled
    when it resumes) and whether each is unbounded.  Raises
    IterationLimitError when an LP needs more than max_iter pivots of its
    own.
    """
    rows, cols = shape
    width = max(1, min(width, count))
    work = W, B, L, place = (np.empty((width, rows, cols)),
                             np.empty((width, rows - 1), dtype=np.intp),
                             np.empty((width, cols - 1), dtype=np.intp),
                             np.empty(width, dtype=np.intp))
    slack = cols - 1 + np.arange(rows - 1), np.arange(cols - 1)
    born = np.empty(count, dtype=np.intp)   # the step each LP came in at
    unbounded = np.zeros(count, dtype=bool)
    k = np.arange(width)
    above = rows + cols                     # more than any label
    # n LPs live and filled - n finished in the working copy, built of the
    # batch's LPs filled in; oldest is a lower bound on born of a live LP
    n = filled = built = step = oldest = 0
    while True:
        if not n or n < width and built < count:
            if filled > n:
                done = place[n:filled]
                yield done, W[n:filled], B[n:filled], L[n:filled], unbounded[done]
            if built == count:
                return
            new = np.arange(built, min(count, built + width - n))
            fill(new, W[n:n + new.size])
            B[n:n + new.size], L[n:n + new.size] = slack
            place[n:n + new.size], born[new] = new, step
            n = filled = n + new.size
            built += new.size
        improving = W[:n, -1, :-1] < -_PIVOT_TOL
        enter = np.where(improving, L[:n], above).argmin(axis=1)
        go = improving[k[:n], enter]
        if np.count_nonzero(go) < n:
            n, enter = _front(work, n, go), enter[go]
            if not n:
                continue
        leave = _leaving(W[k[:n], :-1, enter], W[:n, :-1, -1], B[:n])
        if np.count_nonzero(leave < 0):
            go = leave >= 0
            live = _front(work, n, go)
            unbounded[place[live:n]] = True
            n, enter, leave = live, enter[go], leave[go]
            if not n:
                continue
        if step - oldest >= max_iter:
            oldest = born[place[:n]].min()
            if step - oldest >= max_iter:
                raise IterationLimitError("simplex pivot limit exceeded")
        _pivot(W[:n], B[:n], L[:n], leave, enter)
        step += 1


def _width(m, n):
    """How many LPs of m rows in n unknowns one stack pivots at once: a
    block of their condensed tableaus."""
    return _kernels.per_block(8 * (m + 1) * (2 * n + 1))


def chebyshev_width(m, n):
    """How many Chebyshev LPs of systems of m rows in n unknowns one stack
    pivots at once."""
    return _width(m + 1, n + 1)


def _solve_leq(gather, count, m, n):
    """Simplex from the slack basis of count LPs "maximize obj.x subject to
    A x <= b" (b >= 0) of m rows in n unknowns, as one stream: gather(idx)
    returns obj, A and b of the LPs idx, at most one stack of them.  Which
    LPs are unbounded, and the optimal points of the others."""
    def fill(idx, T):
        # standard form A(u - v) + s = b with u, v, s >= 0; the slacks s start basic
        obj, A, b = gather(idx)
        T[:, :m, :n] = A
        np.negative(A, out=T[:, :m, n:-1])
        T[:, :m, -1] = b
        np.negative(obj, out=T[:, -1, :n])
        T[:, -1, n:-1] = obj
        T[:, -1, -1] = 0.0

    unbounded, x = np.zeros(count, dtype=bool), np.zeros((count, n))
    stream = _simplex(fill, count, (m + 1, 2 * n + 1), _width(m, n),
                      5000 + 200 * (2 * n + 2 * m))
    for idx, T, basis, _, ends_unbounded in stream:
        unbounded[idx] = ends_unbounded
        x_full = np.zeros((len(idx), 2 * n + m))
        x_full[np.arange(len(idx))[:, None], basis] = T[:, :m, -1]
        x[idx] = x_full[:, :n] - x_full[:, n: 2 * n]
    return unbounded, x


class LPs(NamedTuple):
    """A batch of count LPs "maximize obj.x subject to A x <= b" (b >= 0)
    of m rows in n unknowns: gather(idx) returns obj, A and b of the LPs
    idx, and answer(unbounded, x) turns where they end into the batch's
    result."""

    count: int
    m: int
    n: int
    gather: Callable
    answer: Callable


def stream(*batches):
    """Each batch's result, in order, from one stream of all their LPs.

    The stream takes the largest shape of the batches, and an LP of fewer
    rows or unknowns goes into its slot padded with inert zero rows after
    its own rows and zero unknowns after its own: a zero unknown has zero
    cost and a zero column, so it never improves and stays 0, an inert
    row never enters a ratio test, and the labels of the LP's own
    variables keep their order.  So Bland's rule pivots it bit for bit as
    alone, and its optimum is the same point.
    """
    live = [lps for lps in batches if lps.count] or batches[:1]
    m, n = max(lps.m for lps in live), max(lps.n for lps in live)
    ends = np.cumsum([lps.count for lps in batches]).tolist()
    parts = list(zip(batches, [0] + ends[:-1], ends))

    def padded(idx):
        # idx ascends, as `_simplex` fills, so each batch's LPs are one run of it
        obj, A, b = np.zeros((idx.size, n)), np.zeros((idx.size, m, n)), np.zeros((idx.size, m))
        cuts = np.searchsorted(idx, ends).tolist()
        for (lps, lo, _), i, j in zip(parts, [0] + cuts[:-1], cuts):
            if j > i:
                obj[i:j, :lps.n], A[i:j, :lps.m, :lps.n], b[i:j, :lps.m] = lps.gather(idx[i:j] - lo)
        return obj, A, b

    if ends[-1]:
        unbounded, x = _solve_leq(live[0].gather if len(live) == 1 else padded, ends[-1], m, n)
    else:                       # no LPs, no stream
        unbounded, x = np.zeros(0, dtype=bool), np.zeros((0, n))
    return [lps.answer(unbounded[lo:hi], x[lo:hi, :lps.n] if hi > lo else np.zeros((0, lps.n)))
            for lps, lo, hi in parts]


def redundancy_lps(A, b, rest, rows, tol=TAU_LP, systems=None):
    """The batch of LPs `redundant_rows` runs, one per row."""
    systems = np.arange(len(rows)) if systems is None else systems
    obj = A[systems, rows]

    def gather(idx):
        s = systems[idx]
        keep = rest[s]
        keep[np.arange(idx.size), rows[idx]] = False
        return obj[idx], np.where(keep[:, :, None], A[s], 0.0), np.where(keep, b[s], 0.0)

    def answer(unbounded, x):
        # (1, n) @ (n, 1) rounds as the dot product obj @ x does
        value = (obj[:, None, :] @ x[:, :, None])[:, 0, 0]
        return ~unbounded & (value <= b[systems, rows] + tol), x

    return LPs(len(rows), *A.shape[1:], gather, answer)


def redundant_rows(A, b, rest, rows, tol=TAU_LP, systems=None):
    """Whether row rows[p] of system s = systems[p] (s = p by default),
    A[s] y <= b[s], is redundant against the other rows rest[s] marks (b
    >= 0 there), and the point where each LP ends (its optimum when
    bounded); the rows left out are inert.  The LPs run as one stream,
    which gathers their systems one stack at a time."""
    return stream(redundancy_lps(A, b, rest, rows, tol, systems))[0]


def chebyshev_lps(A, c, r_cap, systems=None, norm=None):
    """The batch of LPs `chebyshev_centers` runs, one per system that has
    no zero row 0 <= c_i < -TAU_LP; `norm` is A's row norms, when the
    caller has them."""
    systems = np.arange(len(A)) if systems is None else systems
    norm = np.linalg.norm(A, axis=2) if norm is None else norm
    ok = np.flatnonzero(~((norm == 0) & (c < -TAU_LP)).any(axis=1)[systems])
    s = systems[ok]
    lps = chebyshev_batch(ok.size, *A.shape[1:], r_cap,
                          lambda idx: (A[s[idx]], c[s[idx]], norm[s[idx]]))

    def answer(unbounded, x):
        centers, radii = np.zeros((len(systems), A.shape[2])), np.full(len(systems), -np.inf)
        centers[ok], radii[ok] = lps.answer(unbounded, x)
        return centers, radii

    return lps._replace(answer=answer)


def chebyshev_batch(count, m, n, r_cap, build):
    """The Chebyshev LPs of count systems A x <= c of m rows in n unknowns,
    as `chebyshev_centers` poses them: build(idx) returns A, c and the row
    norms of the systems idx, at most one stack of them, so only a chunk
    of systems exists at a time.  The answer is their centers and radii.
    A system with a zero row 0 <= c_i < -TAU_LP takes an LP of no cost,
    which ends before its first pivot, and radius -inf."""
    r0, bad = np.empty(count), np.empty(count, dtype=bool)

    def gather(idx):
        A, c, norm = build(idx)
        bad[idx] = ((norm == 0) & (c < -TAU_LP)).any(axis=1)
        quot = np.divide(c, norm, out=np.full(c.shape, np.inf), where=norm != 0)
        r0[idx] = np.minimum(float(r_cap), np.min(quot, axis=1, initial=np.inf))
        rows = np.zeros((idx.size, m + 1, n + 1))
        rows[:, :m, :n] = A
        rows[:, :m, n] = norm
        rows[:, m, n] = 1.0                           # r <= r_cap
        rhs = np.empty((idx.size, m + 1))
        np.subtract(c, norm * r0[idx, None], out=rhs[:, :m])
        rhs[:, m] = float(r_cap) - r0[idx]
        obj = np.zeros((idx.size, n + 1))
        obj[:, n] = ~bad[idx]                         # maximize r
        return obj, rows, np.maximum(rhs, 0.0, out=rhs)

    def answer(unbounded, x):
        return x[:, :n], np.where(bad, -np.inf, r0 + x[:, n])

    return LPs(count, m + 1, n + 1, gather, answer)


def chebyshev_centers(A, c, r_cap, systems=None):
    """Centers and signed radii of the largest inscribed balls of the
    stacked systems A[systems], c[systems] (all of them by default).

    One LP per system {x : A x <= c} maximizes a free r subject to a_i.x +
    |a_i| r <= c_i and r <= r_cap, so it is bounded even when the region
    contains arbitrarily large balls.  The radius is negative when the
    system is empty, -inf (with no LP) when a zero row reads 0 <= c_i <
    -TAU_LP.  The LP runs on r - r0 with r0 = min(r_cap, min_i c_i / |a_i|),
    whose right-hand sides are all non-negative; zero rows are inert.  The
    LPs run as one stream, which gathers their systems one stack at a time.
    """
    return stream(chebyshev_lps(A, c, r_cap, systems))[0]
