"""Independent brute-force oracles used to pin down expected values.

Nothing here shares code with the library paths under test: the persistence
oracle is a plain left-to-right reduction without clearing, MST/components
come from Kruskal and union-find, the 2-D facet count walks the polygon
directly, the essential rows come from scipy's linprog, repeated rows from a
row-at-a-time scan, the text-format oracles format one entry or one bit
at a time, and activation patterns come from one point at a time.
"""

import math
from itertools import combinations

import numpy as np


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

def essential_rows_linprog(A, c, tol):
    """Row indices kept by an ascending redundancy sweep solved with linprog.

    Zero rows go, and so does a row whose normalised (a_i, c_i) equals an
    earlier row's.  Each remaining row, in ascending order, is dropped when
    its maximum over the other survivors is at most c_i + tol; an unbounded
    maximum keeps it.
    """
    from scipy.optimize import linprog

    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    n = A.shape[1]
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
        redundant = False
        if rest:
            res = linprog(-A[i], A_ub=A[rest], b_ub=c[rest],
                          bounds=[(None, None)] * n, method="highs")
            assert res.status in (0, 3), res.message
            redundant = res.status == 0 and -res.fun <= c[i] + tol
        if redundant:
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


def bits_text(v):
    """0/1 string of a BitVector, read one bit at a time from its words."""
    return "".join(
        str((int(v.words[i // 64]) >> (i % 64)) & 1) for i in range(v.n)
    )


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
