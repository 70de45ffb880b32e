"""Full enumeration of the polyhedral decomposition and its dual graph.

One search finds the regions: brute force, a search over bit prefixes
in rounds that drops every prefix without a full-dimensional interior.
Traversal runs the same search and keeps the seed's component of the
dual graph, the regions reached from the seed's region through
active-bit flips.  A prefix node is its bits, an interior point and a
bound on its radius; a round takes its systems from
`regions._hat_maps`, which builds whole patterns' systems too.  In
bounded mode the box rows are appended to every system; whether a
region hits the box wall is kept as metadata, never inside the Hamming
bits.
The patterns brute force reaches at depth h, its leaves, and the
prefixes it drops account for every pattern, and one Chebyshev stream
over the leaves runs before any redundancy LP.  So each facet candidate
j < h looks up its flip once (`_flips`): crossing a facet of bit j at a
generic point flips bit j alone, into a ball.  A flip that is a region
aims a ray from the region's center at the flip's, which may prove row j
a facet with no LP (`_aimed`), at every tau_lp.  At tau_lp <= lp.TAU_LP
a flip known empty (a dropped prefix or a leaf of Chebyshev radius at
most -TAU_LP) drops row j with no LP, unless the system has a repeated
hyperplane: a wall two rows share, or a row shares with a box face,
flips both bits or leaves the box.  Any other row, a flip only thinner
than tau_dim's among them, takes its LP.
Inside the search a pattern is the int of its bits (`BitVector.value`)
and a batch is one `PackedBits`; a batch returns only the
full-dimensional patterns' Regions, and makes a `BitVector` only for a
region's atlas key.  Every atlas region is built by `_found`; a seed
pattern that is not full-dimensional is built alone, by
`region_from_bits`, whose error names its bits.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, lp
from .errors import (
    BoundaryPointError,
    DimensionMismatch,
    NonFiniteEntry,
    ResourceCapError,
)
from .network import TAU_BIT, PackedBits, _check_input, bit_vector, on_boundary
from .regions import (
    _balls, _essential, _hat_maps, _inscribed_balls, _regions, _system_bytes, region_from_bits,
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


def _found(net, values, empty, extra, tau_lp, tau_dim):
    """The full-dimensional regions of the patterns whose BitVector.values
    these are, in their order: brute force's leaves, or the regions
    traversal reaches.  `empty` holds the `_prefix_key`s of the prefixes
    the search found empty, of Chebyshev radius at most -TAU_LP; with
    brute force's leaves they account for every pattern.

    One Chebyshev stream runs over all the patterns (`regions._balls`),
    and those it finds empty join `empty`.  Then a block of
    full-dimensional patterns at a time is built again and its surviving
    rows are decided (`regions._essential`), the candidates their flips
    settle (`_flips`) with no LP.  Above lp.TAU_LP a near-redundant drop
    can make a non-facet row essential, so there the flip rule is off and
    only the aim settles rows."""
    h = net.h
    patterns = PackedBits.of_values(values, h)
    centers, radii = _balls(net, patterns, extra, tau_dim)
    empty.update(_prefix_key(values[i], h)
                 for i in np.flatnonzero(radii <= min(tau_dim, -lp.TAU_LP)).tolist())
    depths = sorted({key.bit_length() - 1 for key in empty}) if tau_lp <= lp.TAU_LP else []
    ok, found = np.flatnonzero(radii > tau_dim), []
    at = {values[i]: i for i in ok.tolist()}
    for blk in _kernels.blocks(ok.size, _system_bytes(h + len(extra[1]), net.input_dim)):
        bits, z = PackedBits(patterns.packed[ok[blk]], h), centers[ok[blk]]
        (A, c), maps = _hat_maps(net, bits, extra)
        norm = np.linalg.norm(A, axis=2)
        prune = functools.partial(_flips, values=[values[i] for i in ok[blk].tolist()], z=z,
                                  at=at, centers=centers, empty=empty, depths=depths,
                                  norm=norm, h=h, tau_lp=tau_lp)
        found += _regions(bits, A, c, _essential(A, c, z, tau_lp, norm, prune), maps, z)
    return found


def _prefix_key(value, k):
    """The key of bits 0..k-1 of `value` among prefixes of any length:
    those bits, and bit k set."""
    return value & ((1 << k) - 1) | 1 << k


def _flips(centred, values, z, at, centers, empty, depths, norm, h, tau_lp):
    """centred less the LPs of the candidates their flips settle.  The
    flip values[s] ^ 1 << j of a candidate row j < h of system s, of
    center z[s], is one of:

    - a found region, of center centers[at[flip]]: the ray from z[s]
      toward that center (`_aimed`) proves row j a facet when it crosses
      row j first and far enough, and the row is kept with no LP;
    - known empty, in a system with no repeated hyperplane (the flip
      rule): the `_prefix_key` of its bits 0..k-1, for some k > j, is in
      `empty`, and `depths` are the k of the keys.  Row j is no facet and
      no candidate;
    - neither: row j takes its LP.

    Crossing a facet of row j at a generic point changes the sign of row
    j's pre-activation alone, so the flip holds a ball there, and so do
    its prefixes: none has a Chebyshev radius at most -TAU_LP.  A flip
    thinner than tau_dim, not known empty, is no region but may lie
    across a facet, so its row keeps its LP.  A repeated hyperplane flips
    all its copies' bits at once, and a box face takes no bit, so a
    system with a repeated row keeps those LPs.  The aim needs no such
    care: its certificate is a point, whichever way the ray goes."""
    system, row = centred.system, centred.row
    plain = (~((norm > 0) & ~centred.cand).any(axis=1)).tolist()
    low = np.flatnonzero(row < h)

    # each depth's `_prefix_key` as a mask and a bit, inline in the loop
    keys = [(k, (1 << k) - 1, 1 << k) for k in depths]

    def fate(s, j):
        """The index in centers of the flip's region, -1 when it is known
        empty, else -2."""
        flip = values[s] ^ 1 << j
        i = at.get(flip)
        if i is not None:
            return i
        if plain[s] and any(k > j and flip & mask | bit in empty for k, mask, bit in keys):
            return -1
        return -2

    fates = np.array([fate(s, j) for s, j in zip(system[low].tolist(), row[low].tolist())],
                     dtype=np.int64)
    across = fates >= 0
    out, aim = low[fates == -1], low[across]
    cand, lps = centred.cand.copy(), np.ones(row.size, dtype=bool)
    cand[system[out], row[out]] = lps[out] = False
    d = centers[fates[across]] - z[system[aim]]
    lps[aim[_aimed(centred.A, np.where(cand, centred.b, np.inf), system[aim], row[aim], d,
                   tau_lp)]] = False
    return centred._replace(cand=cand, system=system[lps], row=row[lps])


def _aimed(A, b, system, row, d, tau_lp):
    """Whether the ray from y = 0 along d[a] proves row row[a] of the
    system A[system[a]] y <= b[system[a]] (b >= 0; rows with b = inf take
    no part) essential, for every a.

    The ray meets row i at t_i = b_i / (a_i.d) when a_i.d > 0.  If row[a]
    is met first and every other row no earlier than t2, the point t2 d
    satisfies all other rows and exceeds row[a] by (a.d) t2 - b (infinite
    when no other row is met).  When that exceeds tau_lp, the redundancy
    LP of the row, against these rows or any subset of them, keeps it.
    The rays go in blocks of at most _kernels.BLOCK_BYTES of their
    systems, the LP stacks' budget."""
    sure = np.zeros(row.size, dtype=bool)
    for blk in _kernels.blocks(row.size, A[:1].nbytes):
        s, j = system[blk], row[blk]
        aimed = np.arange(j.size), j
        P = (A[s] @ d[blk, :, None])[:, :, 0]
        with np.errstate(divide="ignore", invalid="ignore"):   # rows the ray never meets
            T = np.where(P > 0, b[s] / P, np.inf)
            first = (T.argmin(axis=1) == j) & np.isfinite(T[aimed])
            T[aimed] = np.inf
            sure[blk] = first & (P[aimed] * T.min(axis=1) - b[s, j] > tau_lp)
    return sure


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
    Chebyshev test each region passes) has no
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
    included, which are one batch (`_found`).  h is limited only by
    h_max, which is checked before any LP.
    """
    if net.h > h_max:
        raise ResourceCapError(
            f"h = {net.h} exceeds the brute-force guard ({h_max}); "
            "raise the limit explicitly to proceed"
        )
    extra = _box_rows(net, box)
    found = _found(net, *_leaves(net, extra, tau_dim), extra, tau_lp, tau_dim)
    atlas = DecompositionAtlas()
    atlas.regions.update((region.bits, region) for region in found)
    return _finalize(net, atlas)


def _leaves(net, extra, tau_dim):
    """The patterns `enumerate_brute`'s prefix search reaches at depth h,
    sorted (the empty pattern alone at h = 0), and the set of the
    `_prefix_key`s of the prefixes it found empty, of Chebyshev radius at
    most -TAU_LP.  Each round's systems are freed before the next round's
    are built, and the last round's when the search returns, before the
    leaves' regions are made."""
    h, n = net.h, net.input_dim
    if h == 0:
        return [0], set()
    # the nodes of depth k, J of whose bits are new: bits 0..k-1, interior
    # points z and radius lower bounds r at z (-inf: unknown)
    values, z, r = [0], np.zeros((1, n)), np.full(1, -np.inf)
    empty, k, J = set(), 0, 0
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
        empty.update(_prefix_key(values[i], k)
                     for i in np.flatnonzero(r <= min(tau_dim, -lp.TAU_LP)).tolist())
        live = np.flatnonzero(r > tau_dim)
        values = [values[i] for i in live.tolist()]
        if k == h - 1:
            return sorted(values + [value | 1 << k for value in values]), empty
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
    """The regions reached from the seed's region through active-bit flips.

    The regions are brute force's (`_leaves`, `_found`), with no h_max
    guard, and the atlas keeps those of the seed's component of the dual
    graph: a wall two bits share is no one-bit flip, so the regions
    beyond it are not reached.  A seed region that is not
    full-dimensional raises `region_from_bits`'s error.  The atlas lists
    the regions in the FIFO order of a breadth-first walk from the seed's
    region, which places each region's unplaced flips in the order of its
    active bits.

    The search runs at tau_lp no larger than lp.TAU_LP.  Above it a facet
    can be dropped as near-redundant, and its flip would never be reached,
    but which patterns are full-dimensional does not depend on tau_lp (the
    Chebyshev radius against tau_dim decides it).  So above lp.TAU_LP the
    regions reached are rebuilt at tau_lp by `_found`, in the walk's
    order, and only their facets and edges change.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    extra = _box_rows(net, box)
    first = bit_vector(net, _draw_seed(net, seed, box, rng))
    walk = min(tau_lp, lp.TAU_LP)
    found = {region.bits.value: region
             for region in _found(net, *_leaves(net, extra, tau_dim), extra, walk, tau_dim)}
    if first.value not in found:
        # the seed's region alone raises the error that names its bits
        region_from_bits(net, first, *extra, tau_lp=walk, tau_dim=tau_dim)
    # the FIFO order: each region's flips not yet placed, in the order of
    # its active bits, after those of the regions before it
    h, order = net.h, [found.pop(first.value)]
    for region in order:
        u = region.bits.value
        order.extend(found.pop(u ^ 1 << k) for k in region.active_bits
                     if k < h and u ^ 1 << k in found)
    if walk < tau_lp:
        order = _found(net, [region.bits.value for region in order], set(), extra, tau_lp,
                       tau_dim)
    atlas = DecompositionAtlas()
    atlas.regions.update((region.bits, region) for region in order)
    return _finalize(net, atlas)


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
