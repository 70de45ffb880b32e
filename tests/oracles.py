"""Independent brute-force oracles used to pin down expected values.

Nothing here shares code with the library paths under test: the persistence
oracle is a plain left-to-right reduction without clearing, MST/components
come from Kruskal and union-find, the 2-D facet count walks the polygon
directly, the essential rows come from scipy's linprog, repeated rows from a
row-at-a-time scan, the simplex's leaving row from the sequential ratio
scan and its pivots from a one-tableau simplex in plain floats, the
text-format oracles format one entry or one bit at a time (but
`ldm_vocabulary_text`, the LDM writer before its digit path, formats one
distinct value per block of rows), and activation
patterns and sample points come from one point at a time.  The one
exception is the facet-point sampler: it takes the facet's hyperplane from
the region's own rows, and only the ball inside the facet from
`lp.chebyshev_centers`.
`pivot_lookups` is no oracle: it records the reduction kernel's pivot
lookups and checks, as they happen, that its pivot search only moves forward.
Nor are `filtration_simplices`, a Filtration's simplices as one sorted list
of Python tuples, `from_bits`, the BitVector of a 0/1 sequence, `bit`,
`flip` and `hamming`, one bit, one flip and one distance of BitVectors,
`neighbors`, a Region's one-bit flips, `facets_below_h`, an atlas's
pattern facets and those whose flip it lacks, `region_bytes`, a Region's
fields as raw bytes, and `full_system`, a pattern's whole inequality system
as the library builds it: they are test-only views of library types.
"""

import math
from itertools import combinations

import numpy as np

from reluhom import _kernels, lp, regions
from reluhom.network import BitVector
from reluhom.errors import DegenerateSystemError, DimensionMismatch


# --- naive persistent homology ---------------------------------------------

def naive_barcodes(D, max_dim, t_max=None):
    """Standard boundary-matrix reduction on the global sorted simplex list."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if t_max is None:
        t_max = float(D.max())
    simplices = []
    for k in range(1, max_dim + 3):
        for vs in combinations(range(n), k):
            diam = max((D[i][j] for i, j in combinations(vs, 2)), default=0.0)
            if diam <= t_max:
                simplices.append((diam, len(vs) - 1, vs))
    simplices.sort(key=lambda s: (s[0], s[1], s[2]))
    index = {s[2]: i for i, s in enumerate(simplices)}

    columns = []
    for _, dim, vs in simplices:
        if dim == 0:
            columns.append(set())
        else:
            columns.append({index[f] for f in combinations(vs, dim)})
    low_of = {}
    lows = [None] * len(columns)
    for j, col in enumerate(columns):
        while col:
            piv = max(col)
            other = low_of.get(piv)
            if other is None:
                break
            col ^= columns[other]
        if col:
            lows[j] = max(col)
            low_of[lows[j]] = j

    pairs = {p: [] for p in range(max_dim + 1)}
    paired = set()
    for j, piv in enumerate(lows):
        if piv is not None:
            dim = simplices[piv][1]
            paired.add(piv)
            paired.add(j)
            if dim <= max_dim:
                pairs[dim].append((simplices[piv][0], simplices[j][0]))
    for i, (val, dim, _) in enumerate(simplices):
        if i not in paired and lows[i] is None and dim <= max_dim:
            pairs[dim].append((val, math.inf))
    return {p: sorted(v) for p, v in pairs.items()}


def filtration_simplices(f):
    """All (vertex tuple, value) pairs of a Filtration's blocks, in global
    filtration order: by value, then dimension, then vertices."""
    items = []
    for verts, vals in f.blocks:
        for row, val in zip(verts, vals):
            items.append((tuple(int(v) for v in row), float(val)))
    items.sort(key=lambda sv: (sv[1], len(sv[0]), sv[0]))
    return items


# --- graph oracles ----------------------------------------------------------

class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def n_components(D, t_max):
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    uf = UnionFind(n)
    count = n
    for i in range(n):
        for j in range(i + 1, n):
            if D[i][j] <= t_max and uf.union(i, j):
                count -= 1
    return count


def mst_weights(D):
    """Kruskal: multiset of MST edge weights, one tree per component."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    edges = sorted(
        (D[i][j], i, j) for i in range(n) for j in range(i + 1, n)
    )
    uf = UnionFind(n)
    return sorted(w for w, i, j in edges if uf.union(i, j))


def bfs_distance(adjacency, src):
    """Unweighted shortest-path lengths from src; adjacency = dict of sets."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


# --- 2-D polygon oracle ------------------------------------------------------

def polygon_facet_count(A, c, interior, span=1e6, tol=1e-7):
    """Number of facets of a 2-D polyhedron by vertex-walking its boundary.

    Clips the (possibly unbounded) region to a huge box around the interior
    point and counts which original rows support an edge of positive length.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    box_A = np.vstack([np.eye(2), -np.eye(2)])
    box_c = np.concatenate([interior + span, -(interior - span)])
    A_all = np.vstack([A, box_A])
    c_all = np.concatenate([c, box_c])
    m = A_all.shape[0]
    vertices = []
    for i, j in combinations(range(m), 2):
        M = np.array([A_all[i], A_all[j]])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        v = np.linalg.solve(M, [c_all[i], c_all[j]])
        if np.all(A_all @ v <= c_all + tol):
            vertices.append(v)
    facets = set()
    for k in range(A.shape[0]):
        on = [v for v in vertices if abs(A[k] @ v - c[k]) <= tol * (1 + abs(c[k]))]
        if len(on) >= 2:
            length = max(
                np.linalg.norm(u - v) for u, v in combinations(on, 2)
            )
            if length > tol * span:
                facets.add(k)
    return len(facets)


# --- points on a facet ------------------------------------------------------

def facet_points(A, c, k, count, rng, tau_dim=lp.TAU_DIM):
    """Sample `count` points from the relative interior of facet k.

    The facet is {x : a_k x = c_k} intersected with the remaining rows;
    points are drawn inside the facet's inscribed ball and along random
    chords through its center.  A facet without a ball of radius above
    tau_dim raises DegenerateSystemError.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    c = np.asarray(c, dtype=np.float64)
    a = A[k]
    rest = np.delete(np.arange(A.shape[0]), k)
    x0 = a * (c[k] / (a @ a))
    # orthonormal basis of the hyperplane through x0
    _, _, vh = np.linalg.svd(a[None, :])
    basis = vh[1:].T
    if basis.shape[1] == 0:
        # one-dimensional input: the facet is the single point x0, which
        # must satisfy every other row (strictly, unless the row is the
        # same hyperplane) to be a genuine shared wall
        slack = c[rest] - A[rest] @ x0
        parallel = np.abs(
            np.abs(A[rest] @ a) - np.linalg.norm(A[rest], axis=1) * np.linalg.norm(a)
        ) <= 1e-12
        if np.any(slack < np.where(parallel, -tau_dim, tau_dim)):
            raise DegenerateSystemError("facet is lower-dimensional")
        return [x0 for _ in range(count)]
    A_red = A[rest] @ basis
    c_red = c[rest] - A[rest] @ x0
    centers, radii = lp.chebyshev_centers(A_red[None], c_red[None], r_cap=1.0)
    z0, r = centers[0], radii[0]
    if r <= tau_dim:
        raise DegenerateSystemError("facet is lower-dimensional")
    pts = []
    for _ in range(count):
        d = rng.standard_normal(basis.shape[1])
        d /= np.linalg.norm(d)
        t = rng.uniform(0.0, 0.9 * min(r, 1.0))
        pts.append(x0 + basis @ (z0 + t * d))
    return pts


# --- repeated hyperplanes, one row at a time --------------------------------

def duplicate_rows_loop(A, c, tol):
    """Rows whose normalised (a_j, c_j) is within tol, entry by entry, of an
    earlier nonzero row that is not itself a repeat; zero rows never repeat."""
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    norms = np.linalg.norm(A, axis=1)
    dup = np.zeros(A.shape[0], dtype=bool)
    scale = np.where(norms > 0, norms, 1.0)
    normed = np.hstack([A / scale[:, None], (c / scale)[:, None]])
    for i in range(A.shape[0]):
        if norms[i] == 0 or dup[i]:
            continue
        later = np.nonzero(
            (norms > 0)
            & (np.arange(A.shape[0]) > i)
            & (np.abs(normed - normed[i]).max(axis=1) <= tol)
        )[0]
        dup[later] = True
    return dup


# --- essential rows by scipy ------------------------------------------------

def linprog_max(a, A, c):
    """max a.x over A x <= c (a non-empty system) by scipy's linprog: inf
    when unbounded.

    HiGHS reports some unbounded LPs as infeasible (status 2).  When a
    zero objective over the same rows finds a point, that status can only
    mean unbounded.  It gives up on others with model status Unknown
    (status 4); those are solved again inside the boxes |x_i| <= 1e6 and
    1e7, and read as unbounded only when the optimum grows with the box
    and stays on its boundary.  Else status 4 fails.
    """
    from scipy.optimize import linprog

    bounds = [(None, None)] * A.shape[1]
    res = linprog(-a, A_ub=A, b_ub=c, bounds=bounds, method="highs")
    if res.status == 2:
        point = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=c, bounds=bounds, method="highs")
        assert point.status == 0, point.message
        return math.inf
    if res.status == 4:
        boxed = [linprog(-a, A_ub=A, b_ub=c, bounds=[(-r, r)] * A.shape[1], method="highs")
                 for r in (1e6, 1e7)]
        assert all(box.status == 0 for box in boxed), res.message
        small, big = boxed
        assert -big.fun > -small.fun + 1.0 and np.abs(big.x).max() >= 1e7 * (1 - 1e-9), \
            res.message
        return math.inf
    assert res.status in (0, 3), res.message
    return math.inf if res.status == 3 else -res.fun


def essential_rows_linprog(A, c, tol):
    """Row indices kept by an ascending redundancy sweep solved with linprog.

    Zero rows go, and so does a row whose normalised (a_i, c_i) equals an
    earlier row's.  Each remaining row, in ascending order, is dropped when
    its maximum over the other survivors is at most c_i + tol; an unbounded
    maximum keeps it.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    norms = np.linalg.norm(A, axis=1)
    rows = np.hstack([A, c[:, None]])
    survivors = []
    for i in range(A.shape[0]):
        if norms[i] == 0:
            continue
        if any(
            norms[j] > 0
            and np.abs(rows[i] / norms[i] - rows[j] / norms[j]).max() <= 1e-9
            for j in range(i)
        ):
            continue
        survivors.append(i)
    pos = 0
    while pos < len(survivors):
        i = survivors[pos]
        rest = survivors[:pos] + survivors[pos + 1:]
        if rest and linprog_max(A[i], A[rest], c[rest]) <= c[i] + tol:
            del survivors[pos]
        else:
            pos += 1
    return survivors


# --- text format oracles -----------------------------------------------------

def ldm_text(D):
    """Lower-distance-matrix text, formatted one numpy scalar at a time.

    The per-entry formatter the format was defined with, plus "inf" for an
    infinite entry, which that formatter could not write.
    """
    def fmt(x):
        if math.isinf(x):
            return "inf"
        return str(int(x)) if x == int(x) else repr(float(x))

    D = np.asarray(D, dtype=float)
    return "".join(
        ",".join(fmt(v) for v in D[i, :i]) + "\n" for i in range(1, D.shape[0])
    )


def ldm_vocabulary_text(D):
    """Lower-distance-matrix text as the library wrote every block before
    its digit writer: each distinct value of a block of rows formatted once,
    and the rows joined from that vocabulary."""
    def fmt(x):
        return str(int(x)) if x.is_integer() else repr(x)

    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    step = _kernels.per_block(8 * n)
    out = []
    for lo in range(1, n, step):
        hi = min(n, lo + step)
        entries = D[lo:hi, :hi][np.tri(hi - lo, hi, lo - 1, dtype=bool)]
        values, inverse = np.unique(entries, return_inverse=True)
        words = np.array(list(map(fmt, values.tolist())), dtype=object)
        words = words[inverse].tolist()
        ends = np.cumsum(np.arange(lo, hi)).tolist()
        out.extend(",".join(words[end - i:end]) + "\n" for i, end in zip(range(lo, hi), ends))
    return "".join(out)


def from_bits(bits):
    """The BitVector of a 0/1 sequence: element i is bit i."""
    bits = np.asarray(bits, dtype=np.uint8)
    packed = np.packbits(bits, bitorder="little").tobytes()
    return BitVector(bits.size, int.from_bytes(packed, "little"))


def bit(v, i):
    """Bit i of a BitVector."""
    if not 0 <= i < v.n:
        raise IndexError(i)
    return (v.value >> i) & 1


def flip(v, i):
    """The BitVector v with bit i flipped."""
    if not 0 <= i < v.n:
        raise IndexError(i)
    return BitVector(v.n, v.value ^ (1 << i))


def hamming(a, b):
    """Number of differing bits between two equal-length BitVectors."""
    if len(a) != len(b):
        raise DimensionMismatch(f"bit vector lengths differ: {len(a)} vs {len(b)}")
    return (a.value ^ b.value).bit_count()


def neighbors(region):
    """Bit vectors of the facet-neighbors: one active-bit flip each.

    Active indices >= h = len(region.bits) are box rows, when present; they
    are not flippable and are skipped.
    """
    h = len(region.bits)
    return [flip(region.bits, k) for k in region.active_bits if k < h]


def facets_below_h(atlas):
    """The facets of an atlas's regions that are pattern bits (k < h, not
    box rows), as (bits, k) pairs, and those among them whose flip is not
    a region of the atlas.  Crossing a facet of bit k at a generic point
    changes that one pre-activation's sign, so in a complete atlas every
    such facet's flip is a region, and each edge is two facets."""
    facets = [(bits, k) for bits, region in atlas.regions.items()
              for k in region.active_bits if k < len(bits)]
    return facets, [(bits, k) for bits, k in facets if flip(bits, k) not in atlas.regions]


def region_bytes(region):
    """Every field of a Region, its arrays as shape and raw bytes."""
    arrays = (region.A_essential, region.c_essential, *region.affine, region.interior)
    return region.bits, region.active_bits, [(a.shape, a.tobytes()) for a in arrays]


def full_system(net, bits, extra_A=None, extra_c=None):
    """The whole system A x <= c of a pattern, `regions._hat_maps`'s h rows
    and then the extra rows (e.g. box bounds), which take indices h, h+1, ..."""
    (A, c), _ = regions._hat_maps(net, [bits])
    if extra_A is None:
        return A[0], c[0]
    return np.vstack([A[0], extra_A]), np.concatenate([c[0], extra_c])


def to_array(v):
    """The uint8 0/1 array of a BitVector: element i is bit i."""
    raw = np.frombuffer(v.value.to_bytes((v.n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little")[: v.n]


def bits_text(v):
    """0/1 string of a BitVector, read one bit at a time from its words."""
    return "".join(
        str((int(v.words[i // 64]) >> (i % 64)) & 1) for i in range(v.n)
    )


# --- sample points, one point at a time --------------------------------------

def circle_points(family, count, theta_range=(0.0, 2.0 * np.pi)):
    """Circle samples as one numpy expression per point."""
    t0, t1 = theta_range
    a1, a2 = family.anchors[0], family.anchors[1]
    off = family.offset()
    thetas = t0 + (t1 - t0) * np.arange(count) / count
    return [off + np.sin(t) * a1 + np.cos(t) * a2 for t in thetas]


def torus_points(family, n1, n2, alpha=1.0, mode="grid", rng=None):
    """Torus samples as one numpy expression per (t1, t2) pair."""
    a1, a2, a3, a4 = family.anchors[:4]
    off = (
        family.anchors[4]
        if family.offset_index is None
        else family.anchors[family.offset_index]
    )
    if mode == "grid":
        t1 = 2.0 * np.pi * np.arange(n1) / n1
        t2 = 2.0 * np.pi * np.arange(n2) / n2
        params = [(u, v) for u in t1 for v in t2]
    else:
        params = [tuple(p) for p in rng.uniform(0.0, 2.0 * np.pi, size=(n1 * n2, 2))]
    return [
        off + alpha * (np.sin(u) * a1 + np.cos(u) * a2 + np.sin(v) * a3 + np.cos(v) * a4)
        for u, v in params
    ]


# --- activation patterns, one point at a time -------------------------------

def point_preactivations(net, x):
    """Hidden pre-activations of one point, each layer as w @ a + b."""
    pre = []
    cur = np.asarray(x, dtype=float)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = w @ cur + b
        pre.append(z)
        cur = np.maximum(z, 0.0)
    return pre


def point_bits(net, x, tol):
    """0/1 list of one point's pattern: bit 1 iff its pre-activation > tol."""
    return [int(z > tol) for layer in point_preactivations(net, x) for z in layer]


# --- simplex ratio test, one row at a time ----------------------------------

def bland_leaving_row(col, rhs, order, tol):
    """Leaving row of one tableau by the sequential Bland scan: rows with
    col > tol in order, a ratio within tol of the best so far counting as a
    tie that the lower basic index wins; -1 when no row is eligible."""
    best, leave = math.inf, -1
    for r in range(len(col)):
        if col[r] > tol:
            ratio = rhs[r] / col[r]
            if ratio < best - tol or (
                ratio < best + tol and (leave < 0 or order[r] < order[leave])
            ):
                best, leave = min(ratio, best), r
    return leave


def bland_simplex(T, basis, tol, max_iter):
    """Bland's rule on one tableau alone, in plain floats: T a list of rows,
    cost row last, and basis a list, both pivoted in place to the end.

    The first cost below -tol enters and `bland_leaving_row` picks the
    leaving row.  The pivot row is divided by its pivot; every row, the
    pivot row with factor 0, then loses its entering entry times the pivot
    row (so the pivot row's -0.0 entries turn +0.0), and the pivot column
    is set to exactly 0 and 1.  Returns whether the LP is unbounded and the
    number of pivots.
    """
    m = len(T) - 1
    for pivots in range(max_iter):
        enter = next((j for j, t in enumerate(T[-1][:-1]) if t < -tol), None)
        if enter is None:
            return False, pivots
        leave = bland_leaving_row([T[r][enter] for r in range(m)],
                                  [T[r][-1] for r in range(m)], basis, tol)
        if leave < 0:
            return True, pivots
        prow = [t / T[leave][enter] for t in T[leave]]
        for r in range(m + 1):
            row, factor = (prow, 0.0) if r == leave else (T[r], T[r][enter])
            T[r] = [t - factor * p for t, p in zip(row, prow)]
            T[r][enter] = float(r == leave)
        basis[leave] = enter
    raise AssertionError("no optimum after max_iter pivots")


# --- the reduction kernel's pivot lookups -----------------------------------

def pivot_lookups():
    """A dict type to patch in as `_kernels.dict`, and the lookups it records.

    The kernel's `owner` map (pivot row -> column) is then one of these.
    Each column its loop visits looks up its first pivot, then the new pivot
    after each addition, until a lookup finds no owner.  The second value
    returned gets, per call of the kernel, the pivots of each visit.  Within
    a visit each lookup must find a pivot above the last one, since an
    addition cancels the pivot and adds only rows after it: a wrong addition
    fails here instead of cycling forever.
    """
    calls = []

    class Owner(dict):
        def __init__(self, *args):
            super().__init__(*args)
            self.visits = []
            self.done = True
            calls.append(self.visits)

        def get(self, pivot, default=None):
            if self.done:
                self.visits.append([])
            else:
                assert pivot > self.visits[-1][-1], (
                    "an addition neither raised the pivot nor emptied the column")
            self.visits[-1].append(pivot)
            column = super().get(pivot, default)
            self.done = column is None
            return column

    return Owner, calls
