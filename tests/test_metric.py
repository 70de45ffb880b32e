import numpy as np
import pytest

from reluhom import metric
from reluhom.network import BitVector
from reluhom.errors import DimensionMismatch, FormatError, NonFiniteEntry


def bv(s):
    return BitVector.from01(s)


class TestHamming:
    def test_basic(self):
        assert metric.hamming(bv("0000"), bv("0000")) == 0
        assert metric.hamming(bv("1010"), bv("0101")) == 4
        assert metric.hamming(bv("1000"), bv("1001")) == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            metric.hamming(bv("10"), bv("100"))

    def test_is_a_metric(self):
        rng = np.random.default_rng(41)
        vs = [bv("".join(rng.choice(["0", "1"], 70))) for _ in range(8)]
        for a in vs:
            assert metric.hamming(a, a) == 0
            for b in vs:
                assert metric.hamming(a, b) == metric.hamming(b, a)
                for c in vs:
                    assert metric.hamming(a, c) <= metric.hamming(
                        a, b
                    ) + metric.hamming(b, c)

    def test_crosses_word_boundaries(self):
        a = bv("0" * 130)
        b = bv("0" * 63 + "1" + "0" * 63 + "1" + "0" * 2)
        assert metric.hamming(a, b) == 2


class TestHammingMatrix:
    def test_matches_pairwise(self):
        rng = np.random.default_rng(43)
        vs = [bv("".join(rng.choice(["0", "1"], 33))) for _ in range(12)]
        dm = metric.hamming_matrix(vs, deduplicate=False)
        for i in range(12):
            for j in range(12):
                assert dm.data[i, j] == metric.hamming(vs[i], vs[j])

    def test_dedup_keeps_first_occurrence_order(self):
        vs = [bv("11"), bv("00"), bv("11"), bv("01"), bv("00")]
        kept, assign = metric.dedup_bitvectors(vs)
        assert [k.to01() for k in kept] == ["11", "00", "01"]
        assert list(assign) == [0, 1, 0, 2, 1]
        dm = metric.hamming_matrix(vs, deduplicate=True)
        assert dm.data.shape == (3, 3)
        # labels carry the first sample index that produced each row
        assert dm.labels == ("0", "1", "3")

    def test_empty_input_rejected(self):
        with pytest.raises(FormatError):
            metric.hamming_matrix([])


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
