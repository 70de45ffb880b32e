"""Full enumeration of the polyhedral decomposition and its dual graph.

Two routes produce identical atlases: brute force, a depth-first search
over bit prefixes that drops every prefix without a full-dimensional
interior, and traversal from a seed region through active-bit flips.  In
bounded mode the box rows are appended to every system; whether a region
hits the box wall is kept as metadata, never inside the Hamming bits.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .errors import (
    BoundaryPointError,
    DegenerateSystemError,
    DimensionMismatch,
    InfeasibleSystemError,
    ResourceCapError,
)
from .network import TAU_BIT, BitVector, bit_vector, on_boundary
from .regions import _compose, _inscribed_ball, neighbors, region_from_bits

H_MAX_BRUTE = 24


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box lower <= x <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("box bounds must be equal-length vectors")
        if not np.all(lo < hi):
            raise DimensionMismatch("box requires lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def rows(self):
        """Inequality rows (B, d):  x_i <= u_i  and  -x_i <= -l_i."""
        m = self.lower.size
        B = np.vstack([np.eye(m), -np.eye(m)])
        d = np.concatenate([self.upper, -self.lower])
        return B, d

    def contains(self, x):
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass
class DecompositionAtlas:
    """All full-dimensional regions plus facet adjacency."""

    regions: dict = field(default_factory=dict)     # BitVector -> Region
    edges: set = field(default_factory=set)         # frozenset({bits, bits})
    boundary_flags: dict = field(default_factory=dict)
    box: BoxRegion = None

    def __len__(self):
        return len(self.regions)


def _try_region(net, bits, extra, tau_lp, tau_dim):
    """Region for a pattern, or None when infeasible / lower-dimensional."""
    extra_A, extra_c = extra
    try:
        return region_from_bits(
            net, bits, extra_A=extra_A, extra_c=extra_c,
            tau_lp=tau_lp, tau_dim=tau_dim,
        )
    except (InfeasibleSystemError, DegenerateSystemError):
        return None


def _box_rows(net, box):
    """The box's inequality rows, or (None, None) without a box."""
    if box is None:
        return None, None
    if box.lower.size != net.input_dim:
        raise DimensionMismatch(
            f"box has dimension {box.lower.size}, network input has {net.input_dim}"
        )
    return box.rows()


def _finalize(net, atlas):
    """Adjacency from active-bit flips landing on a present region."""
    h = net.h
    for bits, region in atlas.regions.items():
        atlas.boundary_flags[bits] = any(k >= h for k in region.active_bits)
        for other in neighbors(region):
            if other in atlas.regions:
                atlas.edges.add(frozenset((bits, other)))
    return atlas


def enumerate_brute(net, box=None, h_max=H_MAX_BRUTE,
                    tau_lp=lp.TAU_LP, tau_dim=lp.TAU_DIM):
    """Every full-dimensional region, by a depth-first search over bit prefixes.

    Rows are layer-major, so rows 0..k-1 of a pattern's system depend only
    on its bits 0..k-1: a node at depth k holds those rows and the box
    rows.  A node whose rows hold no ball of radius above tau_dim (the
    Chebyshev test of essentialize) has no full-dimensional extension, so
    it is dropped with all of them.  A child whose new row leaves the
    parent's interior point z more than tau_dim inside needs no LP: it
    keeps z, with the smaller of the two radii.  Each pattern reached at
    depth h goes through region_from_bits.  The search keeps its own
    stack, so h is limited only by h_max, which is checked before any LP.
    """
    h = net.h
    if h > h_max:
        raise ResourceCapError(
            f"h = {h} exceeds the brute-force guard ({h_max}); "
            "raise the limit explicitly to proceed"
        )
    extra = _box_rows(net, box)
    offsets = net.bit_offsets()
    A, c = extra if box is not None else (np.empty((0, net.input_dim)), np.empty(0))
    # depth k, bits 0..k-1, rows, interior point z, radius lower bound at z
    # (-inf: unknown), hidden layer j holding bit k and its map on the prefix
    stack = [(0, 0, A, c, None, -np.inf, 0, net.weights[0], net.biases[0])]
    found = []
    while stack:
        k, value, A, c, z, r, j, w_hat, b_hat = stack.pop()
        if k == h:
            region = _try_region(net, BitVector(h, value), extra, tau_lp, tau_dim)
            if region is not None:
                found.append(region)
            continue
        if r <= tau_dim:
            try:
                z, r = _inscribed_ball(A, c, tau_dim)
            except (InfeasibleSystemError, DegenerateSystemError):
                continue
        while k == offsets[j + 1]:
            s = BitVector(k, value).to_array()[offsets[j]:].astype(np.float64)
            w_hat, b_hat = _compose(net, j, s, w_hat, b_hat)
            j += 1
        a, b = w_hat[k - offsets[j]], b_hat[k - offsets[j]]
        norm = np.linalg.norm(a)
        for bit, sign in ((1, -1.0), (0, 1.0)):       # bit 1: a.x + b >= 0
            row, rhs = sign * a, sign * -b
            d = (rhs - row @ z) / norm if norm > 0 else -np.inf
            stack.append((
                k + 1, value | bit << k, np.vstack([A, row]), np.append(c, rhs),
                z, min(r, d), j, w_hat, b_hat,
            ))
    atlas = DecompositionAtlas(box=box)
    # ascending pattern value, whatever order the search found them in
    for region in sorted(found, key=lambda reg: reg.bits.value):
        atlas.regions[region.bits] = region
    return _finalize(net, atlas)


def _draw_seed(net, seed, box, rng, attempts=100):
    """Return a generic start point, redrawing if seed sits on a boundary."""
    x = np.asarray(seed, dtype=np.float64)
    if box is not None and not box.contains(x):
        raise BoundaryPointError("seed lies outside the box")
    for _ in range(attempts):
        if not on_boundary(net, x, TAU_BIT):
            return x
        if box is not None:
            x = rng.uniform(box.lower, box.upper)
        else:
            x = x + rng.standard_normal(net.input_dim)
    raise BoundaryPointError("could not find a seed off the region boundaries")


def enumerate_traverse(net, seed, box=None, rng=None,
                       tau_lp=lp.TAU_LP, tau_dim=lp.TAU_DIM):
    """Grow the atlas from the seed's region through active-bit flips.

    FIFO frontier: each region is expanded exactly once, and each flip of
    one of its active bits not yet in the atlas is tested as a new region.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    extra = _box_rows(net, box)
    x0 = _draw_seed(net, seed, box, rng)
    atlas = DecompositionAtlas(box=box)

    first = _try_region(net, bit_vector(net, x0), extra, tau_lp, tau_dim)
    if first is None:
        raise DegenerateSystemError("seed region is not full-dimensional")
    atlas.regions[first.bits] = first
    frontier = deque([first.bits])
    while frontier:
        for cand in neighbors(atlas.regions[frontier.popleft()]):
            if cand in atlas.regions:
                continue
            region = _try_region(net, cand, extra, tau_lp, tau_dim)
            if region is not None:
                atlas.regions[cand] = region
                frontier.append(cand)
    return _finalize(net, atlas)


def dual_graph(atlas):
    """Vertices, edges, and the parity two-coloring of the dual graph.

    The coloring is certified: a monochromatic edge means the adjacency
    relation is broken, and is raised as an internal consistency failure.
    """
    vertices = sorted(atlas.regions, key=lambda b: b.to01())
    coloring = {bits: bits.popcount() % 2 for bits in vertices}
    edges = sorted(
        (tuple(sorted(e, key=lambda b: b.to01())) for e in atlas.edges),
        key=lambda uv: (uv[0].to01(), uv[1].to01()),
    )
    for u, v in edges:
        if coloring[u] == coloring[v]:
            raise AssertionError(
                f"monochromatic dual edge {u.to01()} -- {v.to01()}: "
                "adjacency is inconsistent"
            )
    return vertices, edges, coloring
