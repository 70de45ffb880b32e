"""Full enumeration of the polyhedral decomposition and its dual graph.

Two routes produce identical atlases: brute force, a search over bit
prefixes in rounds that drops every prefix without a full-dimensional
interior, and traversal from a seed region through active-bit flips in
stages, each one stream of LPs: a stage's Chebyshev LPs test the flips
known so far beside the redundancy LPs of the patterns the stage before
centred (`regions._stage`).  A prefix node is its bits, an interior
point and a bound on its radius; a round takes its systems from
`regions._hat_maps`, which builds whole patterns' systems too.  In
bounded mode the box rows are appended to every system; whether a
region hits the box wall is kept as metadata, never inside the Hamming
bits.
Inside both routes a pattern is the int of its bits (`BitVector.value`)
and a batch is one `PackedBits`; `regions_from_bits` returns only the
full-dimensional patterns' Regions, and makes a `BitVector` only for a
region's atlas key.  A seed pattern that is not full-dimensional is
built alone, by `region_from_bits`, whose error names its bits.
"""

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .errors import (
    BoundaryPointError,
    DimensionMismatch,
    NonFiniteEntry,
    ResourceCapError,
)
from .network import TAU_BIT, PackedBits, _check_input, bit_vector, on_boundary
from .regions import (
    _centred, _hat_maps, _inscribed_balls, _stage, region_from_bits, regions_from_bits,
)

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
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise NonFiniteEntry("box bounds must be finite")
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

    def __len__(self):
        return len(self.regions)


def _found(net, values, extra, tau_lp, tau_dim):
    """The full-dimensional regions of the patterns whose BitVector.values
    these are, in their order."""
    patterns = PackedBits.of_values(values, net.h)
    return regions_from_bits(net, patterns, *extra, tau_lp=tau_lp, tau_dim=tau_dim)


def _box_rows(net, box):
    """The box's inequality rows, or no rows without a box."""
    if box is None:
        return np.empty((0, net.input_dim)), np.empty(0)
    if box.lower.size != net.input_dim:
        raise DimensionMismatch(
            f"box has dimension {box.lower.size}, network input has {net.input_dim}"
        )
    return box.rows()


def _finalize(net, atlas):
    """Adjacency from active-bit flips landing on a present region."""
    h = net.h
    keys = {bits.value: bits for bits in atlas.regions}
    pairs = set()
    for bits, region in atlas.regions.items():
        atlas.boundary_flags[bits] = max(region.active_bits, default=-1) >= h
        u = bits.value
        for k in region.active_bits:
            v = u ^ (1 << k)
            if k < h and v in keys:
                pairs.add((u, v) if u < v else (v, u))
    atlas.edges.update(frozenset((keys[u], keys[v])) for u, v in pairs)
    return atlas


def prefix_stack(net, box=None):
    """The most candidates a round of `enumerate_brute` that adds two or
    more bits tests: one stack of Chebyshev LPs of its fewest rows."""
    return lp.chebyshev_width(len(_box_rows(net, box)[1]) + 2, net.input_dim)


def enumerate_brute(net, box=None, h_max=H_MAX_BRUTE,
                    tau_lp=lp.TAU_LP, tau_dim=lp.TAU_DIM):
    """Every full-dimensional region, by a search over bit prefixes in rounds.

    Rows are layer-major, so `_hat_maps` builds rows 0..k-1 of a pattern's
    system from its bits 0..k-1 alone: a node at depth k is those bits, an
    interior point z and a lower bound r on its radius at z.  A node whose
    rows and the box rows hold no ball of radius above tau_dim (the
    Chebyshev test each region passes in regions_from_bits) has no
    full-dimensional extension, so it is dropped with all of them.

    A round extends every live node by its next J bits, its 2^J candidates
    each, J as large as keeps the round's candidates within one stack of
    Chebyshev LPs (`lp.chebyshev_width`, so the block budget alone sizes
    the rounds, across layer boundaries), and at least 1.  A round stops
    at depth h - 1.  A candidate whose new rows leave its parent's z more
    than tau_dim inside needs no LP: it keeps z, with the smallest of the
    radii.  Each round's systems are stacked arrays, built once the
    previous round's are freed, and its Chebyshev LPs run as one stream.
    So a round tests at most 2 candidates per region or `prefix_stack` of
    them, and there are at most h rounds, the patterns reached at depth h
    included, which go through regions_from_bits as one batch.  h is
    limited only by h_max, which is checked before any LP.
    """
    if net.h > h_max:
        raise ResourceCapError(
            f"h = {net.h} exceeds the brute-force guard ({h_max}); "
            "raise the limit explicitly to proceed"
        )
    extra = _box_rows(net, box)
    found = _found(net, _leaves(net, extra, tau_dim), extra, tau_lp, tau_dim)
    atlas = DecompositionAtlas()
    atlas.regions.update((region.bits, region) for region in found)
    return _finalize(net, atlas)


def _leaves(net, extra, tau_dim):
    """The patterns `enumerate_brute`'s prefix search reaches at depth h,
    sorted: the empty pattern alone at h = 0.  Each round's systems are
    freed before the next round's are built, and the last round's when
    the search returns, before the leaves' regions are made."""
    h, n = net.h, net.input_dim
    if h == 0:
        return [0]
    # the nodes of depth k, J of whose bits are new: bits 0..k-1, interior
    # points z and radius lower bounds r at z (-inf: unknown)
    values, z, r = [0], np.zeros((1, n)), np.full(1, -np.inf)
    k = J = 0
    while True:
        # rows 0..k-1 of each node's system, then the box rows; the new rows
        # are k-J..k-1, none at the root.  (1, n) @ (n, 1) rounds as the dot
        # products row @ z and row @ row
        A, c = _hat_maps(net, PackedBits.of_values(values, k), extra)[0]
        row, rhs = A[:, k - J:k], c[:, k - J:k]
        norm = np.sqrt((row[:, :, None, :] @ row[..., None])[..., 0, 0])
        gap = np.divide(rhs - (row[:, :, None, :] @ z[:, None, :, None])[..., 0, 0], norm,
                        out=np.full(rhs.shape, -np.inf), where=norm > 0)
        r = np.minimum(r, gap.min(axis=1, initial=np.inf))
        need = np.flatnonzero(r <= tau_dim)
        z[need], r[need] = _inscribed_balls(A, c, need, tau_dim)
        live = np.flatnonzero(r > tau_dim)
        values = [values[i] for i in live.tolist()]
        if k == h - 1:
            return sorted(values + [value | 1 << k for value in values])
        # the round adds bits k..k+J-1, as many as keep its candidates
        # within one stack of Chebyshev LPs, at least one
        J = 1
        while k + J < h - 1 and len(values) << J + 1 <= lp.chebyshev_width(A.shape[1] + J + 1, n):
            J += 1
        # candidate t of each node sets bit k + i to bit i of t
        values = [value | t << k for t in range(1 << J) for value in values]
        z, r = (np.concatenate([x[live]] * (1 << J)) for x in (z, r))
        k += J
        del A, c, row, rhs      # before the next round's systems are built


def _draw_seed(net, seed, box, rng, attempts=100):
    """Return a generic start point from one finite seed point, redrawn off boundaries."""
    x = _check_input(net, seed)
    if x.ndim != 1:
        raise DimensionMismatch(f"seed has shape {x.shape}, network expects ({net.input_dim},)")
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

    Each flip of a region's active bits is tested once, as a new region.
    The walk goes in stages (`regions._stage`), each one stream of LPs:
    the Chebyshev LPs of every untested flip known so far beside the
    redundancy LPs of the patterns the stage before centred.  A pattern's
    facets that a ray certifies are known once it is centred, so their
    flips go into the next stage with its redundancy LPs; the flips of
    the facets only its redundancy LPs keep go into the stage after.  A
    seed region that is not full-dimensional raises `region_from_bits`'s
    error.  The atlas lists the regions in the FIFO order of a
    breadth-first walk from the seed's region, which tests the untested
    flips of one region's active bits at a time.

    The walk runs at tau_lp no larger than lp.TAU_LP.  Above it a facet
    can be dropped as near-redundant, and its flip would never be tried,
    but which patterns are full-dimensional does not depend on tau_lp (the
    Chebyshev radius against tau_dim decides it).  So above lp.TAU_LP the
    regions the walk finds are rebuilt at tau_lp, as one batch in the
    walk's order, and only their facets and edges change.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    extra = _box_rows(net, box)
    x0 = _draw_seed(net, seed, box, rng)
    walk = min(tau_lp, lp.TAU_LP)
    found = _walk(net, x0, extra, walk, tau_dim)
    if walk < tau_lp:
        found = _found(net, [region.bits.value for region in found], extra, tau_lp, tau_dim)
    atlas = DecompositionAtlas()
    atlas.regions.update((region.bits, region) for region in found)
    return _finalize(net, atlas)


def _walk(net, x0, extra, tau_lp, tau_dim):
    """The Regions `enumerate_traverse` reaches from the region of the
    generic point x0, in breadth-first order.  Its sets of patterns are
    freed when it returns, before the atlas's edges are made."""
    h = net.h
    first = bit_vector(net, x0)
    # a facet that a ray from x0 certifies is a facet at the seed's Chebyshev
    # center too, so its flip is tested beside the seed's Chebyshev LP
    (A, c), _ = _hat_maps(net, PackedBits.of([first]), extra)
    _, ray = np.nonzero(_centred(A, c, x0[None], tau_lp).ray[:, :h])
    flips = [first.value] + [first.value ^ 1 << k for k in ray.tolist()]
    tested, found = set(flips), {}         # the values of the patterns tested
    settled, waiting = _stage(net, PackedBits.of_values(flips, h), extra, None, tau_lp, tau_dim)
    if waiting.bits[:1] != [first]:
        # the seed's region alone raises the error that names its bits
        region_from_bits(net, first, *extra, tau_lp=tau_lp, tau_dim=tau_dim)
    while True:
        # the facets a ray certifies of the patterns just centred, and those
        # of the regions just settled; each untested flip once
        system, ray = np.nonzero(waiting.centred.ray[:, :h])
        values = [bits.value for bits in waiting.bits]
        flips = dict.fromkeys(values[s] ^ 1 << k for s, k in zip(system.tolist(), ray.tolist()))
        flips.update(dict.fromkeys(region.bits.value ^ 1 << k for region in settled
                                   for k in region.active_bits if k < h))
        flips = [flip for flip in flips if flip not in tested]
        if not flips and not len(waiting.bits):
            break
        tested.update(flips)
        settled, waiting = _stage(net, PackedBits.of_values(flips, h), extra, waiting,
                                  tau_lp, tau_dim)
        found.update((region.bits.value, region) for region in settled)
    # the FIFO order: each region's flips not yet placed, in the order of
    # its active bits, after those of the regions before it
    order = [found.pop(first.value)]
    for region in order:
        u = region.bits.value
        order.extend(found.pop(u ^ 1 << k) for k in region.active_bits
                     if k < h and u ^ 1 << k in found)
    return order


def dual_graph(atlas):
    """Vertices, edges, and the parity two-coloring of the dual graph.

    The coloring is certified: a monochromatic edge means the adjacency
    relation is broken, and is raised as an internal consistency failure.
    """
    name = {bits: bits.to01() for bits in atlas.regions}
    vertices = sorted(atlas.regions, key=name.get)
    coloring = {bits: bits.popcount() % 2 for bits in vertices}
    ends = []
    for u, v in atlas.edges:
        nu, nv = name[u], name[v]
        ends.append((nu, nv, u, v) if nu < nv else (nv, nu, v, u))
    ends.sort()                 # names are distinct: no BitVector is compared
    edges = [(u, v) for _, _, u, v in ends]
    for u, v in edges:
        if coloring[u] == coloring[v]:
            raise AssertionError(
                f"monochromatic dual edge {u.to01()} -- {v.to01()}: "
                "adjacency is inconsistent"
            )
    return vertices, edges, coloring
