import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluhom import enumeration, files, metric
from reluhom.files import read_bits, write_bits
from reluhom.network import BitVector, PackedBits, bit_vectors
from reluhom.errors import DimensionMismatch, FormatError, NonFiniteEntry

from conftest import random_net
from oracles import bfs_distance, hamming


def bv(s):
    return BitVector.from01(s)


class TestHamming:
    def test_basic(self):
        assert hamming(bv("0000"), bv("0000")) == 0
        assert hamming(bv("1010"), bv("0101")) == 4
        assert hamming(bv("1000"), bv("1001")) == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hamming(bv("10"), bv("100"))

    def test_is_a_metric(self):
        rng = np.random.default_rng(41)
        vs = [bv("".join(rng.choice(["0", "1"], 70))) for _ in range(8)]
        for a in vs:
            assert hamming(a, a) == 0
            for b in vs:
                assert hamming(a, b) == hamming(b, a)
                for c in vs:
                    assert hamming(a, c) <= hamming(
                        a, b
                    ) + hamming(b, c)

    def test_crosses_word_boundaries(self):
        a = bv("0" * 130)
        b = bv("0" * 63 + "1" + "0" * 63 + "1" + "0" * 2)
        assert hamming(a, b) == 2


class TestHammingMatrix:
    def test_matches_pairwise(self):
        rng = np.random.default_rng(43)
        vs = [bv("".join(rng.choice(["0", "1"], 33))) for _ in range(12)]
        dm = metric.hamming_matrix(vs, deduplicate=False)
        for i in range(12):
            for j in range(12):
                assert dm.data[i, j] == hamming(vs[i], vs[j])

    def test_dedup_keeps_first_occurrence_order(self):
        vs = [bv("11"), bv("00"), bv("11"), bv("01"), bv("00")]
        dm = metric.hamming_matrix(vs, deduplicate=True)
        # labels carry the first sample index that produced each row
        assert dm.labels == ("0", "1", "3")
        kept = [vs[int(label)] for label in dm.labels]
        assert [k.to01() for k in kept] == ["11", "00", "01"]
        assert np.array_equal(dm.data, [[hamming(a, b) for b in kept] for a in kept])
        # each vector is at distance 0 from its own kept row and no other
        full = metric.hamming_matrix(vs).data
        assign = [np.flatnonzero(full[i, [0, 1, 3]] == 0).tolist() for i in range(5)]
        assert assign == [[0], [1], [0], [2], [1]]

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DimensionMismatch, match=re.escape("mixed lengths [2, 3]")):
            metric.hamming_matrix([bv("01"), bv("011"), bv("10")])

    def test_empty_input_rejected(self):
        with pytest.raises(FormatError):
            metric.hamming_matrix([])


def popcount_oracle(vectors, deduplicate):
    """Hamming matrix and labels of BitVectors, one xor and popcount of
    their ints per pair, duplicates found by hashing."""
    labels = range(len(vectors))
    if deduplicate:
        first = {}
        for i, v in enumerate(vectors):
            first.setdefault(v, i)
        labels = sorted(first.values())
    kept = [vectors[i] for i in labels]
    return [[(a.value ^ b.value).bit_count() for b in kept] for a in kept], \
        tuple(str(i) for i in labels)


@pytest.mark.parametrize("deduplicate", [False, True])
@pytest.mark.parametrize("h", [1, 7, 8, 9, 63, 64, 65, 512])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), distinct=st.integers(1, 8),
       count=st.integers(1, 30))
def test_every_source_of_patterns_gives_the_popcount_matrix(h, deduplicate, seed,
                                                            distinct, count):
    """bit_vectors, read_bits on its byte path and on its line path (CRLF),
    and a list of BitVectors all give the oracle's matrix.  Padding bits past
    h are zero in every packed source: one that differed between rows would
    split equal patterns in the byte dedup and count in the Gram product."""
    rng = np.random.default_rng(seed)
    net = random_net(2, [h], seed % 1000)
    points = rng.standard_normal((distinct, 2))[rng.integers(0, distinct, count)]
    packed = bit_vectors(net, points)
    vectors = list(packed)
    want, labels = popcount_oracle(vectors, deduplicate)
    with tempfile.TemporaryDirectory() as tmp:
        plain, crlf = Path(tmp) / "bits.txt", Path(tmp) / "crlf.txt"
        write_bits(packed, plain)
        crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
        with open(plain, "rb") as fh, open(crlf, "rb") as fh2:
            assert files._read_bit_blocks(fh) is not None
            assert files._read_bit_blocks(fh2) is None
        sources = [packed, read_bits(plain), read_bits(crlf), vectors]
    for source in sources:
        assert list(source) == vectors
        if isinstance(source, PackedBits):
            assert source.packed.shape == (count, (h + 7) // 8)
            assert not (h % 8 and (source.packed[:, -1] >> h % 8).any())
        dm = metric.hamming_matrix(source, deduplicate=deduplicate)
        assert dm.labels == labels
        assert np.array_equal(dm.data, want)


class TestDistanceMatrix:
    def test_validation(self):
        with pytest.raises(FormatError):
            metric.DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(FormatError):
            metric.DistanceMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]))
        with pytest.raises(FormatError):
            metric.DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("i, j", [(0, 1), (2, 2)])
    def test_nan_entry_is_named(self, i, j):
        d = np.zeros((3, 3))
        d[i, j] = d[j, i] = np.nan
        with pytest.raises(NonFiniteEntry, match=rf"\({i}, {j}\)"):
            metric.DistanceMatrix(d)

    @pytest.mark.parametrize("fault, error, match", [
        ("nan", NonFiniteEntry, r"entry \(1, 2\) is NaN"),
        ("not hollow", FormatError, "not hollow"),
        ("negative", FormatError, "not symmetric"),
    ])
    def test_error_precedence_with_asymmetry(self, fault, error, match):
        # each matrix has two faults, one of them D[0, 1] != D[1, 0]; the
        # errors rank NaN, not hollow, not symmetric, negative
        d = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        if fault == "nan":
            d[1, 2] = d[2, 1] = np.nan
        elif fault == "not hollow":
            d[2, 2] = 1.0
        else:
            d[0, 2] = d[2, 0] = -1.0
        with pytest.raises(error, match=match):
            metric.DistanceMatrix(d)

    def test_nan_in_a_later_block_is_named_by_its_row(self):
        # 400 rows are two blocks of the symmetry check; the NaN is in the second
        d = np.zeros((400, 400))
        d[0, 1] = 1.0                        # not symmetric, but NaN ranks first
        d[390, 5] = np.nan
        with pytest.raises(NonFiniteEntry, match=r"entry \(390, 5\) is NaN"):
            metric.DistanceMatrix(d)
        d[390, 5] = 0.0
        d[399, 398] = 2.0
        with pytest.raises(FormatError, match="not symmetric"):
            metric.DistanceMatrix(d)

    def test_checks_allocate_a_block_not_a_matrix(self):
        """The symmetry check compares rows with columns a block at a time;
        comparing the matrix with its transpose allocated 0.14 times it."""
        n = 800
        d = np.triu(np.random.default_rng(800).integers(0, 513, (n, n)).astype(float), 1)
        d = d + d.T
        tracemalloc.start()
        try:
            dm = metric.DistanceMatrix(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dm.data is d
        assert peak <= 0.05 * d.nbytes, f"peak {peak / d.nbytes:.3f} times the matrix"

    def test_combine_min_max(self):
        d1 = metric.DistanceMatrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
        d2 = metric.DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert metric.combine(d1, d2, "min").data[0, 1] == 1.0
        assert metric.combine(d1, d2, "max").data[0, 1] == 3.0

    def test_combine_shape_mismatch(self):
        d1 = metric.DistanceMatrix(np.zeros((2, 2)))
        d2 = metric.DistanceMatrix(np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch):
            metric.combine(d1, d2, "min")


@settings(max_examples=30)
@given(st.integers(1, 3), st.lists(st.integers(1, 5), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1), st.booleans())
def test_hamming_distance_is_at_most_the_dual_graph_distance(m, sizes, seed, boxed):
    # every atlas edge is a one-bit flip, so the Hamming distance of two
    # regions' patterns is at most their path distance in the dual graph.
    # For one hidden layer the regions are the chambers of a hyperplane
    # arrangement, and a path need cross only the hyperplanes that separate
    # two of them, in the box too, since it is convex: the two are equal
    net = random_net(m, sizes, seed)
    box = enumeration.BoxRegion(np.full(m, -3.0), np.full(m, 3.0)) if boxed else None
    for atlas in (enumeration.enumerate_brute(net, box=box),
                  enumeration.enumerate_traverse(net, np.full(m, 0.123), box=box)):
        keys = list(atlas.regions)
        D = metric.hamming_matrix(keys).data
        adjacency = {bits: set() for bits in keys}
        for u, v in atlas.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        for a, u in enumerate(keys):
            dist = bfs_distance(adjacency, u)
            path = np.array([dist.get(v, np.inf) for v in keys])
            assert np.all(D[a] <= path)
            if len(sizes) == 1:
                assert np.array_equal(D[a], path)
