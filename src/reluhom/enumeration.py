"""Full enumeration of the polyhedral decomposition and its dual graph.

Two routes produce identical atlases: brute force over all 2^h candidate
patterns, and traversal from a seed region through active-bit flips.  In
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
from .regions import neighbors, region_from_bits

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
    """Test all 2^h patterns for a feasible full-dimensional region.

    Pattern j has bit i = (j >> i) & 1, so it is BitVector(h, j); each is
    built just before its test.
    """
    h = net.h
    if h > h_max:
        raise ResourceCapError(
            f"h = {h} exceeds the brute-force guard ({h_max}); "
            "raise the limit explicitly to proceed"
        )
    extra = box.rows() if box is not None else (None, None)
    atlas = DecompositionAtlas(box=box)
    for j in range(1 << h):
        bits = BitVector(h, j)
        region = _try_region(net, bits, extra, tau_lp, tau_dim)
        if region is not None:
            atlas.regions[bits] = region
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
    x0 = _draw_seed(net, seed, box, rng)
    extra = box.rows() if box is not None else (None, None)
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
