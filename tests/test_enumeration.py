import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluhom import _kernels, enumeration, lp, network, regions
from reluhom.errors import (
    BoundaryPointError,
    DegenerateSystemError,
    DimensionMismatch,
    NonFiniteEntry,
    ResourceCapError,
)
from conftest import random_net
from oracles import (
    bit, essential_rows_linprog, facet_points, facets_below_h, flip, full_system, region_bytes,
)


def zaslavsky(h, m):
    """Upper bound on regions cut by h generic hyperplanes in R^m; exact
    when the arrangement is in general position."""
    return sum(math.comb(h, i) for i in range(min(h, m) + 1))


def atlas_keys(atlas):
    return {b.to01() for b in atlas.regions}


def slab_net():
    """The 1-D net of pre-activations x + 1 and 1 - x: regions x < -1,
    -1 < x < 1 (pattern 11, Chebyshev radius 1) and x > 1."""
    return network.NetworkSpec(
        (np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])), (np.ones(2), np.zeros(1)), 1
    )


def ci_net():
    """The 3-8-8 net of the console-script pipeline (rng 0)."""
    rng = np.random.default_rng(0)
    weights = (rng.standard_normal((8, 3)), rng.standard_normal((8, 8)),
               rng.standard_normal((1, 8)))
    biases = (rng.standard_normal(8), rng.standard_normal(8), np.zeros(1))
    return network.NetworkSpec(weights, biases, 3)


def traverse_as_cli(net, box=None, **kw):
    """`reluhom enumerate --mode traverse` at --seed 0: the seed point is
    drawn from the same generator that redraws it."""
    rng = np.random.default_rng(0)
    seed = rng.uniform(box.lower, box.upper) if box else rng.standard_normal(net.input_dim)
    return enumeration.enumerate_traverse(net, seed, box=box, rng=rng, **kw)


# the box [-3, 3]^m of the console-script checks, for the slab and CI's net
BOX1, BOX3 = (enumeration.BoxRegion(np.full(m, -3.0), np.full(m, 3.0)) for m in (1, 3))


class TestBrute:
    def test_single_layer_counts_are_exact(self):
        # generic one-layer nets realize the general-position count
        for h, seed in [(3, 1), (5, 2), (8, 3)]:
            net = random_net(2, [h], seed)
            atlas = enumeration.enumerate_brute(net)
            assert len(atlas.regions) == zaslavsky(h, 2)

    def test_deep_net_within_bound_and_sampled_regions_found(self):
        net = random_net(2, [4, 4], 7)
        atlas = enumeration.enumerate_brute(net)
        assert len(atlas.regions) <= zaslavsky(8, 2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.standard_normal(2) * 4
            assert network.bit_vector(net, x).to01() in atlas_keys(atlas)

    def test_h_cap(self):
        net = random_net(2, [30], 1)
        with pytest.raises(ResourceCapError):
            enumeration.enumerate_brute(net)

    def test_h_cap_fires_before_any_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP ran before the h guard")

        monkeypatch.setattr(lp, "_solve_leq", no_lp)
        net = random_net(2, [3, 3], 11)
        with pytest.raises(ResourceCapError, match="h = 6 exceeds the brute-force guard"):
            enumeration.enumerate_brute(net, h_max=5)

    def test_prefix_search_lp_budget(self, monkeypatch):
        # an infeasible prefix is dropped with all its extensions, and a child
        # whose new row keeps its parent's interior point needs no LP
        net = random_net(3, [5, 5], 7)
        calls = []
        chebyshev_centers = lp.chebyshev_centers

        def counting(A, c, r_cap, systems=None):
            # one Chebyshev LP per system
            calls.extend([1] * (len(A) if systems is None else len(systems)))
            return chebyshev_centers(A, c, r_cap, systems)

        monkeypatch.setattr(lp, "chebyshev_centers", counting)
        atlas = enumeration.enumerate_brute(net)
        # the full-dimensional prefixes of length k are the regions' first k
        # bits; the search visits both children of each (leaves included)
        visited = sum(
            2 * len({b.value & ((1 << k) - 1) for b in atlas.regions})
            for k in range(net.h)
        )
        assert len(calls) < 2 ** net.h
        assert len(calls) < visited

    @pytest.mark.parametrize("boxed", [False, True])
    def test_no_hidden_units_is_one_region(self, boxed):
        # h = 0: the empty pattern is the one region, as traversal finds it
        net = network.NetworkSpec(
            (np.zeros((0, 2)), np.zeros((1, 0))), (np.zeros(0), np.zeros(1)), 2)
        box = enumeration.BoxRegion(np.full(2, -3.0), np.full(2, 3.0)) if boxed else None
        brute = enumeration.enumerate_brute(net, box=box)
        trav = enumeration.enumerate_traverse(net, np.zeros(2), box=box)
        assert [b.to01() for b in brute.regions] == [""] and not brute.edges
        assert [region_bytes(r) for r in brute.regions.values()] == [
            region_bytes(r) for r in trav.regions.values()]
        assert brute.boundary_flags == trav.boundary_flags == {network.BitVector(0, 0): boxed}

    def test_region_witnesses_are_interior(self):
        net = random_net(3, [5], 9)
        atlas = enumeration.enumerate_brute(net)
        for bits, reg in atlas.regions.items():
            assert network.bit_vector(net, reg.interior) == bits


class TestTraverse:
    @pytest.mark.parametrize("m,sizes,seed", [(1, [4], 0), (2, [3, 3], 11), (2, [4, 4], 7), (3, [4], 5)])
    def test_agrees_with_brute(self, m, sizes, seed):
        net = random_net(m, sizes, seed)
        brute = enumeration.enumerate_brute(net)
        trav = enumeration.enumerate_traverse(net, seed=np.full(m, 0.37))
        assert atlas_keys(trav) == atlas_keys(brute)
        assert trav.edges == brute.edges

    def test_start_point_independent(self):
        net = random_net(2, [3, 3], 11)
        a = enumeration.enumerate_traverse(net, seed=np.array([0.1, -0.4]))
        b = enumeration.enumerate_traverse(net, seed=np.array([-3.0, 2.5]))
        assert atlas_keys(a) == atlas_keys(b)

    @pytest.mark.parametrize("box", [None, BOX1])
    def test_seed_on_a_boundary_is_redrawn(self, box):
        net = slab_net()
        assert network.on_boundary(net, np.array([-1.0]))
        x = enumeration._draw_seed(net, [-1.0], box, np.random.default_rng(0))
        assert x[0] != -1.0 and not network.on_boundary(net, x)
        assert box is None or box.contains(x)
        atlas = enumeration.enumerate_traverse(net, [-1.0], box=box)
        assert atlas_keys(atlas) == {"01", "11", "10"}

    def test_seed_outside_the_box_is_refused(self):
        with pytest.raises(BoundaryPointError, match="^seed lies outside the box$"):
            enumeration._draw_seed(slab_net(), [5.0], BOX1, np.random.default_rng(0))
        with pytest.raises(BoundaryPointError, match="^seed lies outside the box$"):
            enumeration.enumerate_traverse(slab_net(), [5.0], box=BOX1)

    @pytest.mark.parametrize("box", [None, BOX3])
    @pytest.mark.parametrize("seed,error,text", [
        pytest.param([0.1, 0.2], DimensionMismatch, r"shape \(2,\)", id="two-coordinates"),
        pytest.param([0.1, np.nan, 0.3], NonFiniteEntry, "non-finite", id="nan"),
        pytest.param([[0.1, 0.2, 0.3]], DimensionMismatch, r"shape \(1, 3\),", id="one-row-batch"),
    ])
    def test_seed_is_one_finite_point_before_the_box_test(self, box, seed, error, text):
        # in the box, a short seed once failed numpy's broadcast and a NaN
        # seed read as outside the box
        with pytest.raises(error, match=text):
            enumeration.enumerate_traverse(ci_net(), seed, box=box)

    def test_no_seed_off_an_all_zero_row(self):
        # the second node's pre-activation is 0 everywhere: every redraw
        # lies on its boundary
        net = network.NetworkSpec((np.array([[1.0], [0.0]]), np.array([[1.0, 1.0]])),
                                  (np.array([1.0, 0.0]), np.zeros(1)), 1)
        with pytest.raises(BoundaryPointError,
                           match="^could not find a seed off the region boundaries$"):
            enumeration._draw_seed(net, [0.5], None, np.random.default_rng(0))

    @pytest.mark.parametrize("box", [None, BOX1])
    def test_degenerate_seed_region_names_its_pattern(self, box):
        # the seed's region is built alone, so its error is `reluhom
        # region`'s: the pattern's bits, then _ball_error's text
        with pytest.raises(DegenerateSystemError, match=(
            r"^pattern 11: region is not full-dimensional: Chebyshev radius 1 <= tau_dim 2$"
        )):
            enumeration.enumerate_traverse(slab_net(), [0.0], box=box, tau_dim=2.0)


class TestBounded:
    def test_box_restricts_and_flags(self):
        net = random_net(2, [3, 3], 11)
        box = enumeration.BoxRegion(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
        full = enumeration.enumerate_brute(net)
        clipped = enumeration.enumerate_brute(net, box=box)
        assert atlas_keys(clipped) <= atlas_keys(full)
        # every clipped region has an interior point inside the box
        for reg in clipped.regions.values():
            assert box.contains(reg.interior)
        # at least one region touches the box, and flags mark exactly those
        assert any(clipped.boundary_flags.values())
        for bits, reg in clipped.regions.items():
            hits_box = any(i >= net.h for i in reg.active_bits)
            assert clipped.boundary_flags[bits] == hits_box

    def test_traverse_matches_brute_in_box(self):
        net = random_net(2, [4, 4], 7)
        box = enumeration.BoxRegion(np.array([-1.5, -1.0]), np.array([1.0, 2.0]))
        brute = enumeration.enumerate_brute(net, box=box)
        trav = enumeration.enumerate_traverse(net, box=box, seed=np.array([0.1, 0.2]))
        assert atlas_keys(trav) == atlas_keys(brute)
        assert trav.boundary_flags == brute.boundary_flags
        assert trav.edges == brute.edges

    def test_bad_box_rejected(self):
        with pytest.raises(Exception):
            enumeration.BoxRegion(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        for bad in (np.inf, np.nan):
            with pytest.raises(NonFiniteEntry, match="box bounds must be finite"):
                enumeration.BoxRegion(np.array([-bad, 0.0]), np.array([bad, 1.0]))

    def test_box_of_wrong_dimension_rejected_by_both_modes(self):
        net = random_net(3, [3, 3], 11)
        box = enumeration.BoxRegion(np.zeros(2), np.ones(2))
        with pytest.raises(DimensionMismatch, match="dimension 2, network input has 3"):
            enumeration.enumerate_brute(net, box=box)
        for seed in (np.full(2, 0.5), np.full(3, 0.5)):
            with pytest.raises(DimensionMismatch, match="dimension 2, network input has 3"):
                enumeration.enumerate_traverse(net, seed, box=box)


class TestDualGraph:
    def test_edges_are_hamming_one(self):
        net = random_net(2, [3, 3], 11)
        atlas = enumeration.enumerate_brute(net)
        verts, edges, colors = enumeration.dual_graph(atlas)
        keys = {v.to01() for v in verts}
        assert keys == atlas_keys(atlas)
        for u, v in edges:
            assert sum(a != b for a, b in zip(u.to01(), v.to01())) == 1

    def test_parity_two_coloring(self):
        net = random_net(2, [4, 4], 7)
        atlas = enumeration.enumerate_brute(net)
        verts, edges, coloring = enumeration.dual_graph(atlas)
        for v in verts:
            assert coloring[v] == v.popcount() % 2
        for u, v in edges:
            assert coloring[u] != coloring[v]

    def test_one_layer_graph_is_connected(self):
        from oracles import UnionFind

        net = random_net(2, [5], 2)
        atlas = enumeration.enumerate_brute(net)
        verts, edges, _ = enumeration.dual_graph(atlas)
        idx = {v: i for i, v in enumerate(verts)}
        uf = UnionFind(len(verts))
        for u, v in edges:
            uf.union(idx[u], idx[v])
        assert len({uf.find(i) for i in range(len(verts))}) == 1

    def test_adjacent_regions_agree_on_shared_facet(self):
        # the affine maps of facet-neighbors coincide on the wall between them
        net = random_net(2, [3, 3], 11)
        atlas = enumeration.enumerate_brute(net)
        rng = np.random.default_rng(8)
        checked = 0
        for u, v in list(atlas.edges)[:10]:
            ru, rv = atlas.regions[u], atlas.regions[v]
            k = next(i for i in range(net.h) if bit(u, i) != bit(v, i))
            pos = ru.active_bits.index(k)
            pts = facet_points(*full_system(net, u), k, count=5, rng=rng)
            Mu, vu = ru.affine
            Mv, vv = rv.affine
            for p in pts:
                assert np.allclose(Mu @ p + vu, Mv @ p + vv, atol=1e-8)
            checked += 1
        assert checked > 0


@st.composite
def small_nets(draw):
    """Random nets: m in {1, 2, 3}, depth 1-3, h <= 8; with or without a box."""
    m = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 3))
    widths = []
    for i in range(depth):
        widths.append(draw(st.integers(1, 8 - sum(widths) - (depth - 1 - i))))
    net = random_net(m, widths, draw(st.integers(0, 2**32 - 1)))
    box = None
    if draw(st.booleans()):
        centre = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
        half = np.array(draw(st.lists(st.floats(0.25, 3.0), min_size=m, max_size=m)))
        box = enumeration.BoxRegion(centre - half, centre + half)
    return net, box


@settings(max_examples=80)
@given(small_nets())
def test_brute_equals_traversal_on_random_nets(case):
    net, box = case
    brute = enumeration.enumerate_brute(net, box=box)
    start = np.full(net.input_dim, 0.123) if box is None else (box.lower + box.upper) / 2
    trav = enumeration.enumerate_traverse(net, start, box=box)
    assert atlas_keys(trav) == atlas_keys(brute)
    assert trav.edges == brute.edges
    assert trav.boundary_flags == brute.boundary_flags
    # both routes build each region with the same Chebyshev LP
    for bits, region in brute.regions.items():
        assert np.array_equal(trav.regions[bits].interior, region.interior)
        assert trav.regions[bits].active_bits == region.active_bits


@settings(max_examples=80)
@given(small_nets())
def test_adjacency_is_a_one_bit_flip_of_a_shared_facet(case):
    # regions u, v differing only in bit k: k is a facet of u iff it is one
    # of v iff {u, v} is an edge; and every edge is such a pair
    net, box = case
    atlas = enumeration.enumerate_brute(net, box=box)
    adjacent = 0
    for u, region in atlas.regions.items():
        for k in range(net.h):
            v = flip(u, k)
            if v.value < u.value or v not in atlas.regions:
                continue
            in_u = k in region.active_bits
            in_v = k in atlas.regions[v].active_bits
            edge = frozenset((u, v)) in atlas.edges
            assert in_u == in_v == edge, (u.to01(), v.to01(), k)
            adjacent += edge
    assert adjacent == len(atlas.edges)


@st.composite
def layered_nets(draw):
    """random_net nets of 1-3 inputs and 2-3 hidden layers of 1-4 units, with
    or without the box [-3, 3]^m."""
    m = draw(st.integers(1, 3))
    net = random_net(m, draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)),
                     draw(st.integers(0, 2**32 - 1)))
    box = enumeration.BoxRegion(np.full(m, -3.0), np.full(m, 3.0)) if draw(st.booleans()) else None
    return net, box


@settings(max_examples=40)
@given(layered_nets())
def test_every_facet_below_h_has_its_flip_in_the_atlas(case):
    # crossing a facet of bit k flips bit k alone, so both enumerators'
    # atlases hold the flip of every pattern facet, and each edge is two
    # facets: the closure traversal's early flips and its order rest on
    net, box = case
    for atlas in (enumeration.enumerate_brute(net, box=box),
                  enumeration.enumerate_traverse(net, np.full(net.input_dim, 0.123), box=box)):
        facets, dangling = facets_below_h(atlas)
        assert dangling == []
        assert len(facets) == 2 * len(atlas.edges)


def test_a_missing_region_leaves_its_neighbours_facets_dangling():
    # the dual graph is connected, so an atlas that lacks a region has a
    # facet with no region across it: each of the region's facets below h
    net = random_net(3, [5, 5], 7)
    atlas = enumeration.enumerate_brute(net)
    bits, region = list(atlas.regions.items())[len(atlas.regions) // 2]
    del atlas.regions[bits]
    dangling = facets_below_h(atlas)[1]
    assert {flip(u, k) for u, k in dangling} == {bits}
    assert sorted(k for _, k in dangling) == [k for k in region.active_bits if k < net.h]


def atlas_fingerprint(atlas):
    """sha256 over the regions in dict order: bits, active bits and the raw
    float64 bytes of the interior point, essential rows and affine map."""
    digest = hashlib.sha256()
    for bits, region in atlas.regions.items():
        digest.update(bits.to01().encode())
        digest.update(np.asarray(region.active_bits, np.int64).tobytes())
        for arr in (region.interior, region.A_essential, region.c_essential, *region.affine):
            digest.update(np.ascontiguousarray(arr, np.float64).tobytes())
    return digest.hexdigest()


ENUMERATORS = {
    "traverse": lambda net: enumeration.enumerate_traverse(net, seed=np.full(net.input_dim, 0.37)),
    "brute": enumeration.enumerate_brute,
}


@pytest.mark.parametrize("name,want", [
    ("traverse", "52b9918d826d70a0ef4a0603d526871177426a2f2efdc42fcc3a709fb77c0ca6"),
    ("brute", "d8c97349ad46b92de3f7d318eb7bedad4d7c8208221bcf5e32da5e800c654b59"),
])
def test_atlas_floats_are_pinned(name, want):
    # recorded from the one-LP-at-a-time solver: batching the LPs moves no
    # bit of any region, nor the order of the atlas
    assert atlas_fingerprint(ENUMERATORS[name](random_net(3, [5, 5], 7))) == want


@pytest.mark.parametrize("budget", [1, 4096, 1 << 30])
@pytest.mark.parametrize("name", ["traverse", "brute"])
def test_block_budget_moves_no_atlas_bit(monkeypatch, name, budget):
    # from one system per LP stack and one ray per block to one stack of all
    net = random_net(3, [5, 5], 7)
    want = atlas_fingerprint(ENUMERATORS[name](net))
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", budget)
    assert atlas_fingerprint(ENUMERATORS[name](net)) == want


@pytest.mark.parametrize("name", ["traverse", "brute"])
def test_rejected_patterns_build_no_geometry_error(monkeypatch, name):
    # a batch leaves out the patterns it rejects (brute force's 96 rejected
    # leaves, traversal's empty flips) with no error made for any of them
    def refuse(*args):
        raise AssertionError("a geometry error was built in a batch")

    monkeypatch.setattr(regions, "_ball_error", refuse)
    assert len(ENUMERATORS[name](random_net(3, [5, 5], 7)).regions) == 132


@pytest.mark.parametrize("name,want", [
    ("traverse", "87b08248f3bb482872813227cca1d3221ae597fb8918e1308706c9bcd621ac4a"),
    ("brute", "458840915ea15827a5f67d42e62f33bc6e21c41663bef2b2912b11f3e7c087c7"),
])
def test_m4_atlas_floats_are_pinned(name, want):
    # recorded with 32 KiB LP stacks: the width of a stack moves no bit of
    # any of the 580 regions, nor the order of the atlas
    assert atlas_fingerprint(ENUMERATORS[name](random_net(4, [6, 6], 7))) == want


@pytest.mark.parametrize("boxed", [False, True])
@pytest.mark.parametrize("m,sizes,seed", [(3, [5, 5], 7), (4, [6, 6], 7), (2, [6, 6, 6], 3)])
def test_brute_force_finds_one_atlas_at_every_budget(monkeypatch, m, sizes, seed, boxed):
    # the budget sizes the prefix rounds: one bit a round at 4 KiB past
    # the first, a few at the default and many at 1 GiB, across layer
    # boundaries.  The live prefixes are exact, so every Region byte, edge
    # and boundary flag is the same
    net = random_net(m, sizes, seed)
    box = enumeration.BoxRegion(np.full(m, -3.0), np.full(m, 3.0)) if boxed else None
    atlases = []
    for budget in (4096, 128 * 1024, 1 << 30):
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", budget)
        atlases.append(enumeration.enumerate_brute(net, box=box))
    want = atlases[0]
    assert len(want.regions) > 40
    for atlas in atlases[1:]:
        assert list(atlas.regions) == list(want.regions)
        assert [region_bytes(region) for region in atlas.regions.values()] == [
            region_bytes(region) for region in want.regions.values()]
        assert atlas.edges == want.edges
        assert atlas.boundary_flags == want.boundary_flags


@pytest.mark.parametrize("budget,rounds", [(4096, 8), (None, 4), (1 << 30, 2)])
def test_prefix_rounds_follow_the_block_budget(monkeypatch, budget, rounds):
    # the Chebyshev rounds before the leaves on the 3-5-5 net, the root's
    # included: 10 when every round added one bit
    calls = []
    inscribed_balls = enumeration._inscribed_balls

    def counting(*args):
        calls.append(1)
        return inscribed_balls(*args)

    monkeypatch.setattr(enumeration, "_inscribed_balls", counting)
    if budget is not None:
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", budget)
    enumeration.enumerate_brute(random_net(3, [5, 5], 7))
    assert len(calls) == rounds


@pytest.mark.parametrize("boxed", [False, True])
@pytest.mark.parametrize("m,sizes,seed", [(1, [10], 0), (3, [5, 5], 7), (2, [6, 6, 6], 3)])
def test_prefix_search_tests_within_the_guard_bound(monkeypatch, m, sizes, seed, boxed):
    # the bound `reluhom enumerate` prints when the guard is raised: each
    # of at most h rounds, the leaves included, tests at most 2 prefix
    # nodes per region or one stack of prefix_stack, plus the root.  The
    # 1-D net's 10 or so regions break the one-bit search's 2 h per
    # region: its second round tests 256 prefixes at once
    tested = []
    inscribed_balls, found = enumeration._inscribed_balls, enumeration._found

    def counting_balls(A, *args):
        tested.append(len(A))
        return inscribed_balls(A, *args)

    def counting_found(net, values, *args):
        tested.append(len(values))
        return found(net, values, *args)

    monkeypatch.setattr(enumeration, "_inscribed_balls", counting_balls)
    monkeypatch.setattr(enumeration, "_found", counting_found)
    net = random_net(m, sizes, seed)
    box = enumeration.BoxRegion(np.full(m, -3.0), np.full(m, 3.0)) if boxed else None
    regions = len(enumeration.enumerate_brute(net, box=box).regions)
    assert tested[0] == 1 and len(tested) <= net.h + 1
    assert max(tested[1:]) <= max(2 * regions, enumeration.prefix_stack(net, box))
    assert sum(tested) <= net.h * max(2 * regions, enumeration.prefix_stack(net, box)) + 1
    if m == 1:
        assert sum(tested) > 2 * net.h * regions + 1


def stack_widths(name):
    """The LP streams one enumeration of the 3-5-5 net runs, one per
    `lp._simplex` call: its LPs, its width and the rows of the systems its
    LPs are built from; and the bytes of every stack of tableaus that
    pivots."""
    streams, stacks = [], []
    simplex, pivot = lp._simplex, lp._pivot

    def recording(fill, count, shape, width, max_iter):
        # a system of m rows in n = 3 unknowns has an (m + 2) x 9 Chebyshev
        # tableau and an (m + 1) x 7 redundancy tableau
        streams.append((count, width, shape[0] - 1 - (shape[1] == 9)))
        return simplex(fill, count, shape, width, max_iter)

    def recording_pivot(T, *args):
        stacks.append(T.nbytes)
        return pivot(T, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_simplex", recording)
        mp.setattr(lp, "_pivot", recording_pivot)
        ENUMERATORS[name](random_net(3, [5, 5], 7))
    return streams, stacks


def lps(streams):
    return sum(count for count, *_ in streams)


def test_traversal_splits_no_wave(monkeypatch):
    # the block budget cuts stacks, not LPs: the same 907 LPs run at
    # _kernels.BLOCK_BYTES as with no cap on a stack's bytes, and no stack
    # that pivots is larger than one block
    streams, stacks = stack_widths("traverse")
    assert {rows for *_, rows in streams} == {10}
    assert max(stacks) <= _kernels.BLOCK_BYTES
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1 << 30)
    assert lps(streams) == lps(stack_widths("traverse")[0]) == 907


def test_traversal_pivot_steps_are_pinned(monkeypatch):
    # the stages' streams on the 3-5-5 net: 16 streams and 117 steps when
    # each wave ran its Chebyshev LPs and then its redundancy LPs
    steps = []
    pivot = lp._pivot

    def counted(*args):
        steps.append(1)
        return pivot(*args)

    monkeypatch.setattr(lp, "_pivot", counted)
    streams, _ = stack_widths("traverse")
    assert (len(streams), len(steps)) == (9, 71)


def test_brute_force_splits_no_level(monkeypatch):
    # each prefix round's Chebyshev LPs, and each LP batch of the leaves,
    # run as one stream whose stacks that pivot are at most one block, and
    # some stream refills its stack.  The budget sizes the prefix rounds,
    # so the LPs they take follow it, pinned at each budget (1,267 / 1,293
    # / 1,499 while every facet candidate rays left took a redundancy LP);
    # the atlas does not follow it
    net = random_net(3, [5, 5], 7)
    want = atlas_fingerprint(enumeration.enumerate_brute(net))
    counts = []
    for budget, pin in [(4096, 619), (_kernels.BLOCK_BYTES, 645), (1 << 30, 851)]:
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", budget)
        streams, stacks = stack_widths("brute")
        assert max(stacks) <= budget
        assert lps(streams) == pin
        assert atlas_fingerprint(enumeration.enumerate_brute(net)) == want
        counts.append(len(streams))
        if budget < 1 << 30:
            assert any(count > width for count, width, _ in streams)
    assert counts == sorted(counts, reverse=True) and counts[1] < counts[0]


def test_traversal_ratio_tests_only_lps_that_go_on(monkeypatch):
    # per `_simplex` call, one ratio test per pivot step, and one more when
    # the last LPs of the stack end unbounded: none for LPs already optimal
    calls = []
    simplex, leaving, pivot = lp._simplex, lp._leaving, lp._pivot

    def counted_simplex(*args):
        calls.append({"tests": 0, "pivots": 0, "ends_unbounded": False})
        return simplex(*args)

    def counted_leaving(*args):
        leave = leaving(*args)
        calls[-1]["tests"] += 1
        calls[-1]["ends_unbounded"] = bool(np.all(leave < 0))
        return leave

    def counted_pivot(*args):
        calls[-1]["pivots"] += 1
        calls[-1]["ends_unbounded"] = False
        return pivot(*args)

    for name, counted in [("_simplex", counted_simplex), ("_leaving", counted_leaving),
                          ("_pivot", counted_pivot)]:
        monkeypatch.setattr(lp, name, counted)
    ENUMERATORS["traverse"](random_net(3, [5, 5], 7))
    assert sum(call["pivots"] for call in calls) > len(calls) > 0
    for call in calls:
        assert call["tests"] == call["pivots"] + call["ends_unbounded"]


def test_brute_force_stacks_are_wide():
    # a prefix round or the leaves is one stream or a few (93 stacks with
    # 32 KiB full tableaus, 40 with 128 KiB, 18 with 128 KiB condensed, 9
    # streams of 128 KiB stacks)
    assert len(stack_widths("brute")[0]) <= 48


@pytest.mark.parametrize("name", ["traverse", "brute"])
def test_peak_memory_is_the_atlas(name):
    # the batches' temporaries are cut into blocks and each brute-force
    # round's systems are freed before the next round's are built, so the
    # atlas itself dominates the peak
    net = random_net(3, [8, 8], 7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        atlas = ENUMERATORS[name](net)
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(atlas.regions) == 583
    assert peak <= 1.3 * held


@pytest.mark.parametrize("name", ["traverse", "brute"])
@pytest.mark.parametrize("m,sizes", [(3, [8, 8]), (4, [6, 6])])
def test_boxed_peak_is_the_atlas_and_a_few_blocks(name, m, sizes):
    # in the box [-3, 3]^m the atlas is smaller, so no ratio bounds the
    # transient above it, but a few blocks do: traversal holds one stage's
    # centred systems beside the next stage's
    net = random_net(m, sizes, 7)
    box = enumeration.BoxRegion(np.full(m, -3.0), np.full(m, 3.0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if name == "traverse":
            atlas = enumeration.enumerate_traverse(net, np.full(m, 0.37), box=box)
        else:
            atlas = enumeration.enumerate_brute(net, box=box)
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(atlas.regions) == (371 if m == 3 else 238)
    assert peak - held <= 4 * _kernels.BLOCK_BYTES


@pytest.mark.parametrize("name", ["traverse", "brute"])
def test_atlas_keeps_no_array_bytes_beyond_its_regions(name):
    # every array a Region holds is its own part of a buffer its batch's
    # regions share, and those buffers hold nothing else: not the whole
    # systems, nor a copy the regions do not use
    atlas = ENUMERATORS[name](random_net(3, [8, 8], 7))
    owners, own = {}, 0
    for region in atlas.regions.values():
        own += sum(a.nbytes for a in (region.A_essential, region.c_essential,
                                      *region.affine, region.interior))
        for value in (getattr(region, f.name) for f in dataclasses.fields(region)):
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    while isinstance(array.base, np.ndarray):
                        array = array.base
                    owners[id(array)] = array
    assert len(atlas.regions) == 583
    assert sum(array.nbytes for array in owners.values()) == own


def test_traversal_finds_every_region_above_the_default_tau_lp():
    # the console-script pipeline's 3-8-8 net, enumerated as `reluhom
    # enumerate --tau-lp 0.1` does in both modes
    net = ci_net()
    brute = enumeration.enumerate_brute(net, tau_lp=0.1)
    trav = traverse_as_cli(net, tau_lp=0.1)
    if (len(brute.regions), len(brute.edges)) != (897, 2543):
        pytest.fail(f"brute force found {len(brute.regions)} regions, "
                    f"{len(brute.edges)} edges, not 897 and 2,543")
    assert atlas_keys(trav) == atlas_keys(brute)
    assert trav.edges == brute.edges


@pytest.mark.parametrize("box", [None, BOX3])
@pytest.mark.parametrize("tau_lp", [0.1, 0.5])
def test_traversal_is_brute_force_restricted_to_what_it_reaches(tau_lp, box):
    # above the default tau_lp, what traversal reaches is all of brute
    # force's atlas: the same regions, Regions byte for byte and edges (it
    # walks at lp.TAU_LP; a walk at tau_lp itself finds only 881 and 876 of
    # 897, 541 and 526 of 559 in the box)
    net = ci_net()
    brute = enumeration.enumerate_brute(net, box=box, tau_lp=tau_lp)
    trav = traverse_as_cli(net, box=box, tau_lp=tau_lp)
    assert len(brute.regions) == (559 if box else 897)
    assert trav.regions.keys() == brute.regions.keys()
    for bits, region in trav.regions.items():
        assert region_bytes(region) == region_bytes(brute.regions[bits])
    assert trav.edges == brute.edges


@settings(max_examples=25)
@given(layered_nets())
def test_brute_force_facets_are_the_linprog_oracles(case):
    # each region's active bits are the rows scipy's sequential sweep keeps
    # of its whole system, an oracle that reads neither the atlas nor its
    # patterns: a facet that the flip rule spares an LP in error shows here
    net, box = case
    extra = box.rows() if box else ()
    for bits, region in enumeration.enumerate_brute(net, box=box).regions.items():
        want = essential_rows_linprog(*full_system(net, bits, *extra), lp.TAU_LP)
        assert list(region.active_bits) == want, bits.to01()


def test_brute_force_facets_above_the_default_tau_dim_are_the_linprog_oracles():
    # at tau_dim 0.2 a region thinner than that across a facet is no
    # region, so its flip is missing from the atlas; it is not empty, so
    # the flip rule leaves its row to its LP
    net = random_net(2, [4, 4], 7)
    atlas = enumeration.enumerate_brute(net, tau_dim=0.2)
    assert facets_below_h(atlas)[1]
    for bits, region in atlas.regions.items():
        assert list(region.active_bits) == essential_rows_linprog(*full_system(net, bits),
                                                                   lp.TAU_LP)


NET243 = random_net(2, [4, 3], 0)
BOX2 = enumeration.BoxRegion(np.full(2, -3.0), np.full(2, 3.0))


def net243_with(neuron, weights, bias):
    """NET243 with layer-1 neuron `neuron` given these weights and bias."""
    W, c = NET243.weights[0].copy(), NET243.biases[0].copy()
    W[neuron], c[neuron] = weights, bias
    return network.NetworkSpec((W, *NET243.weights[1:]), (c, *NET243.biases[1:]), 2)


# layer-1 neuron 3 is 2.5 times neuron 1: one wall of two bits (CI's net5.json)
DUPLICATED = net243_with(3, 2.5 * NET243.weights[0][1], 2.5 * NET243.biases[0][1])
# layer-1 neuron 2 is x_0 - 3, whose wall is the box face x_0 = 3
ON_THE_FACE = net243_with(2, [1.0, 0.0], -3.0)


@pytest.mark.parametrize("net,box,want", [
    (DUPLICATED, None, "52be4e3dc4ec684f33852e7e8f1d8777c5f574bda5f55e978f213d0c5c5cb5af"),
    (DUPLICATED, BOX2, "ed76f2bc2d690d5125e68aab92e9388ef3e9696e7a0caccde3801e7a85982c7c"),
    (ON_THE_FACE, None, "e74b457460301acfea493470c51f96b2c1e3dc4f61b7242c3d32ee97dd1310b6"),
    (ON_THE_FACE, BOX2, "ee1d846cfab0f150f42b57993a2ac9d84eef6340bafb81d95c4d89c1752bb74f"),
], ids=["duplicated", "duplicated-box", "on-the-face", "on-the-face-box"])
def test_coincident_rows_keep_their_lps(monkeypatch, net, box, want):
    # crossing a wall that two rows share flips both bits, or leaves the
    # box, so the lowest copy's one-bit flip is no region though the row
    # is a facet.  With no ray to certify it, only its redundancy LP keeps
    # it: pinned from brute force before the flip rule
    monkeypatch.setattr(regions, "_ray_facets",
                        lambda A, b, tau_lp: np.zeros(b.shape, dtype=bool))
    assert atlas_fingerprint(enumeration.enumerate_brute(net, box=box)) == want


def radius(system):
    """The Chebyshev radius of one system (A, c), as brute force takes it."""
    A, c = system
    return regions._inscribed_balls(A[None], c[None], np.arange(1), lp.TAU_DIM)[1][0]


@pytest.mark.parametrize("boxed", [False, True])
def test_brute_force_lps_only_rows_the_flip_rule_leaves(lp_counter, boxed):
    # of the rows no ray certifies, a redundancy LP goes to a box row, a
    # row of a system with a repeated hyperplane, or a row whose flip is a
    # region or thinner than tau_dim but not empty (no flip here has an
    # empty pattern but a thin prefix, whose row would take an LP too);
    # the others are no facets.  Above lp.TAU_LP every one keeps its LP:
    # 863 and 645 then, as before the rule
    net = random_net(3, [5, 5], 7)
    box = BOX3 if boxed else None
    extra = box.rows() if box else ()
    atlas = enumeration.enumerate_brute(net, box=box)
    want = 0
    for bits, region in atlas.regions.items():
        A, c = full_system(net, bits, *extra)
        norm = np.linalg.norm(A, axis=1)
        dup = regions._duplicate_rows(A[None], c[None], norm[None])[0]
        cand = (norm > 0) & ~dup
        b = np.where(cand, c - A @ region.interior, np.inf)
        for j in np.flatnonzero(cand & ~regions._ray_facets(A[None], b[None], lp.TAU_LP)[0]):
            want += (j >= net.h or dup.any() or flip(bits, j) in atlas.regions
                     or radius(full_system(net, flip(bits, j), *extra)) > -lp.TAU_LP)
    assert lp_counter.redundancy == want == (263 if boxed else 126)
    lp_counter.redundancy = 0
    enumeration.enumerate_brute(net, box=box, tau_lp=0.1)
    assert lp_counter.redundancy == (645 if boxed else 863)


# walls at x = 1 and x = 1 + 5e-9: the slab between them is thinner than
# tau_dim, and no ray certifies a facet by an excess of 5e-9
TWO_WALLS = network.NetworkSpec((np.array([[1.0], [1.0]]), np.array([[1.0, 1.0]])),
                                (np.array([-1.0, -1.0 - 5e-9]), np.zeros(1)), 1)


def test_a_facet_across_a_thin_region_keeps_its_lp():
    # the flip across each region's facet is no region but not empty, so
    # the flip rule leaves the row to its LP, which keeps it, as scipy's
    # sweep does and traversal does from either side
    brute = enumeration.enumerate_brute(TWO_WALLS)
    assert [bits.to01() for bits in brute.regions] == ["00", "11"]
    for bits, region in brute.regions.items():
        want = essential_rows_linprog(*full_system(TWO_WALLS, bits), lp.TAU_LP)
        assert list(region.active_bits) == want == [1]
    for seed in (0.0, 2.0):
        trav = enumeration.enumerate_traverse(TWO_WALLS, np.array([seed]))
        assert len(trav.regions) == 1
        for bits, region in trav.regions.items():
            assert region_bytes(region) == region_bytes(brute.regions[bits])
