import math

import numpy as np
import pytest

from reluhom import enumeration, network, regions
from reluhom.errors import DimensionMismatch, ResourceCapError
from conftest import random_net


def zaslavsky(h, m):
    """Upper bound on regions cut by h generic hyperplanes in R^m; exact
    when the arrangement is in general position."""
    return sum(math.comb(h, i) for i in range(min(h, m) + 1))


def atlas_keys(atlas):
    return {b.to01() for b in atlas.regions}


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
            k = next(i for i in range(net.h) if u[i] != v[i])
            pos = ru.active_bits.index(k)
            pts = regions.facet_points(ru.A, ru.c, k, count=5, rng=rng)
            Mu, vu = ru.affine
            Mv, vv = rv.affine
            for p in pts:
                assert np.allclose(Mu @ p + vu, Mv @ p + vv, atol=1e-8)
            checked += 1
        assert checked > 0
