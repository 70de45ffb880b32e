"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line (with timing where a budget applies)
once its assertions hold; a pytest failure is the FAIL line.
"""

import json
import math
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from reluhom import (
    enumeration,
    metric,
    network,
    persistence,
    regions,
    sampling,
)
from reluhom.errors import DegenerateSystemError
from conftest import random_net
from oracles import bit, facet_points, full_system, naive_barcodes, mst_weights

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


#: filled by the tests, printed by the terminal-summary hook in conftest
RESULTS = {}


def report(num, detail):
    RESULTS[num] = detail


def hamming01(a, b):
    return sum(x != y for x, y in zip(a.to01(), b.to01()))


# ---------------------------------------------------------------------------
# shared atlases: built once, reused by the adjacency and bipartiteness checks


@pytest.fixture(scope="session")
def atlases_random():
    """50 random nets (1-3 inputs, depth 1-3, h up to 12): brute + traversal."""
    sizes_cycle = [[4], [6], [8], [3, 3], [4, 4], [2, 3, 3], [3, 3, 3], [4, 4, 4]]
    out = []
    t0 = time.time()
    for i in range(50):
        m = [1, 2, 3][i % 3]
        net = random_net(m, sizes_cycle[i % len(sizes_cycle)], 1000 + i)
        brute = enumeration.enumerate_brute(net)
        trav = enumeration.enumerate_traverse(net, seed=np.full(m, 0.123))
        out.append((net, brute, trav))
    return out, time.time() - t0


@pytest.fixture(scope="session")
def atlases_one_layer():
    """20 generic one-hidden-layer planar nets, h = 3..8."""
    out = []
    t0 = time.time()
    for i in range(20):
        h = 3 + i % 6
        net = random_net(2, [h], 2000 + i)
        out.append((net, enumeration.enumerate_brute(net)))
    return out, time.time() - t0


def random_distance_matrix(rng, n):
    if rng.random() < 0.5:
        pts = rng.standard_normal((n, int(rng.integers(2, 4))))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    else:
        d = np.triu(rng.integers(1, 9, (n, n)).astype(float), 1)
        d = d + d.T
    np.fill_diagonal(d, 0.0)
    return d


# ---------------------------------------------------------------------------


def test_criterion_1_brute_equals_traversal(atlases_random):
    atlases, elapsed = atlases_random
    assert len(atlases) == 50
    for net, brute, trav in atlases:
        assert set(brute.regions) == set(trav.regions)
        assert brute.edges == trav.edges
    assert elapsed < 120.0
    report(1, f"brute ≡ traversal on 50 random nets ({elapsed:.1f}s < 120s)")


def test_criterion_2_region_counts_match_arrangement_formula(atlases_one_layer):
    atlases, elapsed = atlases_one_layer
    assert len(atlases) == 20
    for net, atlas in atlases:
        h = net.h
        want = sum(math.comb(h, i) for i in range(3))  # planar inputs
        assert len(atlas.regions) == want, f"h={h}"
    assert elapsed < 30.0
    report(2, f"20 one-layer nets hit the generic-arrangement count ({elapsed:.1f}s < 30s)")


def test_criterion_3_adjacency_is_hamming_one_with_matching_maps(
    atlases_random, atlases_one_layer
):
    t0 = time.time()
    all_atlases = [(n, a) for n, a, _ in atlases_random[0]] + atlases_one_layer[0]
    rng = np.random.default_rng(99)
    pairs_checked = edges_verified = 0
    for net, atlas in all_atlases:
        keys = list(atlas.regions)
        edge_set = {frozenset(e) for e in atlas.edges}
        # every atlas edge joins bit vectors at Hamming distance exactly 1
        for e in edge_set:
            u, v = tuple(e)
            assert hamming01(u, v) == 1
        # independent facet test on a sample of Hamming-1 pairs per atlas
        h1_pairs = [
            (u, v)
            for u, v in combinations(keys, 2)
            if hamming01(u, v) == 1
        ]
        rng.shuffle(h1_pairs)
        for u, v in h1_pairs[:6]:
            ru = atlas.regions[u]
            k = next(i for i in range(net.h) if bit(u, i) != bit(v, i))
            try:
                pts = facet_points(*full_system(net, u), k, count=20, rng=rng)
                shares_facet = True
            except DegenerateSystemError:
                shares_facet = False
                pts = []
            assert (frozenset((u, v)) in edge_set) == shares_facet
            pairs_checked += 1
            if shares_facet:
                Mu, vu = ru.affine
                Mv, vv = atlas.regions[v].affine
                for p in pts:
                    assert np.max(np.abs((Mu @ p + vu) - (Mv @ p + vv))) < 1e-8
                edges_verified += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(
        3,
        f"adjacent ⇔ one bit flip on {pairs_checked} pairs; affine maps agree on "
        f"20 facet points per shared facet ({edges_verified} facets, {elapsed:.1f}s < 60s)",
    )


def test_criterion_4_dual_graph_is_bipartite(atlases_random, atlases_one_layer):
    all_atlases = [a for _, a, _ in atlases_random[0]] + [
        a for _, a in atlases_one_layer[0]
    ]
    n_edges = 0
    for atlas in all_atlases:
        # dual_graph raises if any edge is monochromatic under parity coloring
        verts, edges, coloring = enumeration.dual_graph(atlas)
        for u, v in edges:
            assert coloring[u] != coloring[v]
        n_edges += len(edges)
    report(4, f"zero monochromatic edges across {len(all_atlases)} atlases ({n_edges} edges)")


def test_criterion_5_affine_map_reproduces_forward_pass():
    rng = np.random.default_rng(321)
    worst = 0.0
    for trial in range(1000):
        m = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(2, 6)) for _ in range(depth)]
        net = random_net(m, sizes, 5000 + trial)
        x = rng.standard_normal(m) * 3
        M, v = regions.region_of(net, x).affine
        _, out = network.forward(net, x)
        worst = max(worst, float(np.max(np.abs(M @ x + v - out))))
    assert worst < 1e-9
    report(5, f"forward = region affine map on 1000 pairs (max |Δ| = {worst:.2e} < 1e-9)")


def test_criterion_6_reduction_matches_naive_oracle():
    rng = np.random.default_rng(777)
    for trial in range(100):
        n = int(rng.integers(3, 11))
        max_dim = int(rng.integers(0, 3))
        d = random_distance_matrix(rng, n)
        f = persistence.build_filtration(d, max_dim=max_dim)
        bc = persistence.compute_barcodes(f)
        want = naive_barcodes(d, max_dim)
        for q in range(max_dim + 1):
            got = sorted(bc.intervals(q, include_zero_length=True))
            assert got == sorted(want.get(q, [])), f"trial {trial} dim {q}"
    report(6, "barcodes equal the naive-reduction oracle on 100 random matrices")


def test_criterion_7_h0_deaths_are_spanning_tree_weights():
    rng = np.random.default_rng(888)
    for _ in range(50):
        n = int(rng.integers(4, 14))
        d = random_distance_matrix(rng, n)
        f = persistence.build_filtration(d, max_dim=0)
        bc = persistence.compute_barcodes(f)
        deaths = sorted(
            e for b, e in bc.intervals(0, include_zero_length=True) if e != math.inf
        )
        assert np.allclose(deaths, mst_weights(d))
    report(7, "H0 finite deaths equal the minimum-spanning-tree weights, 50 matrices")


def circle_slicing_net(h=8):
    """3-input net whose hidden hyperplanes all cut the unit circle in the
    plane of the last two coordinates: 2h arcs, h near-diameter chords."""
    rows = [
        [0.0, math.cos(k * math.pi / h + 0.05), math.sin(k * math.pi / h + 0.05)]
        for k in range(h)
    ]
    b1 = 0.01 * np.linspace(1.0, 2.0, h)
    return network.NetworkSpec(
        weights=[np.array(rows), np.ones((1, h))],
        biases=[b1, np.zeros(1)],
        input_dim=3,
    )


def test_criterion_8_circle_shows_one_dominant_loop():
    net = circle_slicing_net()
    fam = sampling.AnchorFamily(
        [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    )
    pts = sampling.circle_samples(fam, 500)
    vectors = [network.bit_vector(net, p) for p in pts]
    dm = metric.hamming_matrix(vectors, deduplicate=True)
    n_regions = dm.data.shape[0]
    assert n_regions >= 12
    f = persistence.build_filtration(dm.data, max_dim=1)
    bc = persistence.compute_barcodes(f)
    lengths = sorted(
        (e - b for b, e in bc.intervals(1) if e != math.inf), reverse=True
    )
    assert lengths, "no finite H1 bars at all"
    runner_up = lengths[1] if len(lengths) > 1 else 0.0
    assert lengths[0] >= 2.0 * runner_up
    assert len([l for l in lengths if l >= 2.0 * runner_up and l == lengths[0]]) == 1
    report(
        8,
        f"circle through {n_regions} regions gives one dominant H1 bar "
        f"(length {lengths[0]:.0f} vs runner-up {runner_up:.0f})",
    )


def test_criterion_9_torus_grid_has_two_loops_and_one_void():
    t0 = time.time()
    anchors = sampling.random_orthogonal_anchors(12, 5, seed=42)
    fam = sampling.AnchorFamily(anchors)
    pts = np.stack(sampling.torus_samples(fam, 10, 10, alpha=1.0))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    np.fill_diagonal(d, 0.0)
    # cut the filtration past every feature of interest to stay in budget
    f = persistence.build_filtration(d, max_dim=2, t_max=2.0)
    bc = persistence.compute_barcodes(f)
    counts = {}
    for q in (1, 2):
        bars = [(b, e) for b, e in bc.intervals(q) if e != math.inf]
        longest = max(e - b for b, e in bars)
        counts[q] = sum(1 for b, e in bars if e - b >= 0.25 * longest)
    elapsed = time.time() - t0
    assert counts[1] == 2
    assert counts[2] == 1
    assert elapsed < 120.0
    report(9, f"torus grid: 2 long H1 bars, 1 long H2 bar ({elapsed:.1f}s < 120s)")


def test_criterion_10_min_max_combination_thresholds():
    rng = np.random.default_rng(555)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        d1 = random_distance_matrix(rng, n)
        d2 = random_distance_matrix(rng, n)
        m1, m2 = metric.DistanceMatrix(d1), metric.DistanceMatrix(d2)
        dmin = metric.combine(m1, m2, "min").data
        dmax = metric.combine(m1, m2, "max").data
        for t in np.unique(np.concatenate([d1.ravel(), d2.ravel()])):
            g1 = d1 <= t
            g2 = d2 <= t
            assert np.array_equal(dmax <= t, g1 & g2)
            assert np.array_equal(dmin <= t, g1 | g2)
    report(10, "max ↔ threshold-graph intersection, min ↔ union, 20 matrix pairs")


def test_criterion_11_export_fidelity_and_recorded_barcode(tmp_path):
    # bit-exact round trip through the lower-triangle CSV
    rng = np.random.default_rng(111)
    d = random_distance_matrix(rng, 9)
    p = tmp_path / "m.ldm"
    persistence.export_lower_distance(d, p)
    back = persistence.read_lower_distance(p)
    assert np.array_equal(back.data, d)

    # recorded 10x10 fixture: intervals must match the stored barcode exactly
    ref = persistence.read_lower_distance(f"{FIXTURES}/ref10.ldm")
    f = persistence.build_filtration(ref.data, max_dim=2)
    got = persistence.compute_barcodes(f).to_json_obj()
    with open(f"{FIXTURES}/ref10_barcode.json") as fh:
        want = json.load(fh)
    assert got == want
    report(11, "CSV round trip is bit-exact; 10×10 fixture barcode matches the recording")
