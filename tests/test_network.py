import io
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from reluhom.errors import DimensionMismatch, FormatError, NonFiniteEntry
from reluhom import network
from reluhom.network import (
    BitVector,
    NetworkSpec,
    bit_vector,
    bit_vectors,
    forward,
    load_network,
    on_boundary,
    preactivations,
)

from conftest import random_net
from oracles import bits_text, point_bits, point_preactivations


def weight_doc(layers, input_dim):
    return {
        "input_dim": input_dim,
        "layers": [{"weights": w, "bias": b} for w, b in layers],
    }


class TestLoadNetwork:
    def test_valid_2331(self):
        doc = weight_doc(
            [
                ([[1, 0], [0, 1], [1, 1]], [0, 0, 0]),
                ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1]),
                ([[1, 2, 3]], [0]),
            ],
            input_dim=2,
        )
        net = load_network(io.StringIO(json.dumps(doc)))
        assert net.n_hidden_layers == 2
        assert net.input_dim == 2
        assert net.output_dim == 1
        assert net.h == 6

    def test_dimension_mismatch_names_layer(self):
        doc = weight_doc(
            [
                ([[1, 0], [0, 1], [1, 1]], [0, 0, 0]),
                ([[1, 0, 0, 9], [0, 1, 0, 9], [0, 0, 1, 9]], [1, 1, 1]),
                ([[1, 2, 3]], [0]),
            ],
            input_dim=2,
        )
        with pytest.raises(DimensionMismatch, match="layer 2"):
            load_network(io.StringIO(json.dumps(doc)))

    def test_non_finite_entry(self):
        doc = weight_doc([([[float("nan")]], [0]), ([[1]], [0])], input_dim=1)
        with pytest.raises(NonFiniteEntry):
            load_network(doc)

    def test_parse_failure(self):
        with pytest.raises(FormatError):
            load_network(io.StringIO("not json"))


class TestForward:
    def test_relu_clamps_negative(self):
        net = load_network(
            weight_doc([([[1]], [0]), ([[1]], [0])], input_dim=1)
        )
        hidden, out = forward(net, [-2.0])
        assert hidden[0][0] == 0.0
        assert out[0] == 0.0

    def test_identity_on_positive(self):
        net = load_network(
            weight_doc([([[1]], [0]), ([[1]], [0])], input_dim=1)
        )
        hidden, out = forward(net, [3.0])
        assert hidden[0][0] == 3.0
        assert out[0] == 3.0

    def test_hand_expanded_fixture(self, net_221):
        # z1 = [1+2+1, 3-1-2] = [4, 0]; F1 = [4, 0]; out = 2*4 - 3*0 + 0.5
        _, out = forward(net_221, [1.0, 1.0])
        assert out[0] == pytest.approx(8.5, abs=1e-12)

    def test_length_mismatch(self, net_221):
        with pytest.raises(DimensionMismatch):
            forward(net_221, [1.0])


class TestBitVectorOp:
    def test_zero_preactivation_gives_zero_bit(self):
        net = load_network(weight_doc([([[1]], [0]), ([[1]], [0])], input_dim=1))
        assert bit_vector(net, [0.0]).to01() == "0"

    def test_opposite_halfspaces(self):
        net = load_network(
            weight_doc([([[1], [-1]], [0, 0]), ([[1, 1]], [0])], input_dim=1)
        )
        assert bit_vector(net, [5.0]).to01() == "10"

    def test_matches_recomputed_signs(self):
        net = random_net(2, [2, 2], seed=3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal(2) * 3
            bits = bit_vector(net, x).to_array()
            signs = np.concatenate([(z > 0).astype(int) for z in preactivations(net, x)])
            assert np.array_equal(bits, signs)

    def test_forward_bit_consistency(self):
        net = random_net(3, [4, 3], seed=5)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.standard_normal(3) * 2
            bits = bit_vector(net, x).to_array()
            pre = np.concatenate(preactivations(net, x))
            post = np.concatenate(forward(net, x)[0])
            for b, z, f in zip(bits, pre, post):
                if b:
                    assert f == pytest.approx(z, abs=1e-12)
                else:
                    assert f == 0.0

    def test_numerical_continuity(self):
        net = random_net(2, [4, 4], seed=7)
        lip = np.prod([np.linalg.norm(w, 2) for w in net.weights])
        rng = np.random.default_rng(8)
        for _ in range(30):
            x = rng.standard_normal(2)
            delta = rng.standard_normal(2) * 1e-6
            f0 = forward(net, x)[1]
            f1 = forward(net, x + delta)[1]
            assert np.linalg.norm(f1 - f0) <= lip * np.linalg.norm(delta) + 1e-15

    def test_on_boundary(self):
        net = load_network(weight_doc([([[1]], [0]), ([[1]], [0])], input_dim=1))
        assert on_boundary(net, [0.0])
        assert not on_boundary(net, [0.5])


def rounding_bound(net, x):
    """Per hidden unit, twice a float64 bound on how far a computed
    pre-activation of x can lie from the exact one, for any summation order.

    A sum of K products and a bias is within gamma_{K+1} (|W| |a| + |b|) of
    its exact value for the input a it was given, gamma_k = k u / (1 - k u);
    an input already off by e moves it by at most |W| e more (ReLU is
    1-Lipschitz).  Two computations of z each lie within this of the exact
    value, so they differ by at most twice it.
    """
    u = np.finfo(np.float64).eps / 2
    a = np.abs(np.asarray(x, dtype=float))
    err = np.zeros_like(a)
    bounds = []
    for w, b, z in zip(net.weights[:-1], net.biases[:-1], point_preactivations(net, x)):
        k = w.shape[1] + 1
        gamma = k * u / (1 - k * u)
        aw = np.abs(w)
        err = gamma * (aw @ (a + 2 * err) + np.abs(b)) + aw @ err
        bounds.append(2 * err)
        a = np.maximum(z, 0.0)
    return np.concatenate(bounds)


class TestBitVectors:
    @pytest.mark.parametrize("k", [0, 1, 255, 256, 257, 600])
    def test_matches_per_point_oracle(self, k):
        net = random_net(16, [256, 256], seed=3)
        assert network.BIT_BLOCK_BYTES // (8 * 256) == 256   # blocks of 256 rows
        pts = np.random.default_rng(k).standard_normal((k, 16)) * 2
        got = bit_vectors(net, list(pts))
        assert len(got) == k
        decided = 0
        for x, v in zip(pts, got):
            z = np.concatenate(point_preactivations(net, x))
            want = np.array(point_bits(net, x, network.TAU_BIT))
            sure = np.abs(z - network.TAU_BIT) > rounding_bound(net, x)
            assert np.array_equal(v.to_array()[sure], want[sure])
            decided += sure.sum()
        assert decided >= 0.999 * k * net.h

    def test_bit_vector_is_a_batch_of_one(self):
        net = random_net(3, [5, 4], seed=8)
        for x in np.random.default_rng(9).standard_normal((20, 3)):
            assert bit_vector(net, x, 0.1) == bit_vectors(net, [x], 0.1)[0]
            assert bit_vector(net, x, 0.1).to_array().tolist() == point_bits(net, x, 0.1)

    def test_tolerance_is_honoured(self):
        net = load_network(weight_doc([([[1], [-1]], [0, 0]), ([[1, 1]], [0])], input_dim=1))
        pts = [[0.5], [-0.05], [2.0]]
        assert [v.to01() for v in bit_vectors(net, pts, 0.1)] == ["10", "00", "10"]
        assert [v.to01() for v in bit_vectors(net, pts)] == ["10", "01", "10"]

    def test_batched_preactivations_and_forward(self):
        net = random_net(4, [6, 5], seed=12, out_dim=2)
        pts = np.random.default_rng(13).standard_normal((7, 4))
        pre = preactivations(net, pts)
        assert [z.shape for z in pre] == [(7, 6), (7, 5)]
        hidden, out = forward(net, pts)
        assert out.shape == (7, 2)
        for i, x in enumerate(pts):
            for zb, zo in zip(pre, point_preactivations(net, x)):
                assert np.allclose(zb[i], zo, rtol=0, atol=1e-12)
            assert np.allclose(out[i], forward(net, x)[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "points", [np.ones((3, 2)), np.ones(3), np.ones((2, 3, 1)), [[1.0, 2.0]]]
    )
    def test_wrong_shape_rejected(self, points):
        net = random_net(3, [4], seed=1)
        with pytest.raises(DimensionMismatch):
            bit_vectors(net, points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        net = random_net(2, [3, 3], seed=2)
        pts = np.ones((300, 2))
        pts[299, 1] = bad
        with pytest.raises(NonFiniteEntry, match="point 299"):
            bit_vectors(net, pts)
        for fn in (preactivations, forward, bit_vector):
            with pytest.raises(NonFiniteEntry):
                fn(net, [bad, 1.0])

    def test_peak_memory_below_one_unchunked_layer(self):
        net = random_net(16, [256, 256], seed=3)
        pts = list(np.random.default_rng(0).standard_normal((2000, 16)))
        layer = 2000 * 256 * 8
        tracemalloc.start()
        try:
            got = bit_vectors(net, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 2000
        assert peak < layer, f"peak {peak} bytes, one unchunked layer {layer}"


class TestBitVectorType:
    def test_pack_roundtrip_long(self):
        rng = np.random.default_rng(9)
        for n in (1, 63, 64, 65, 130, 500):
            bits = rng.integers(0, 2, n).astype(np.uint8)
            v = BitVector.from_bits(bits)
            assert len(v) == n
            assert np.array_equal(v.to_array(), bits)
            assert BitVector.from01(v.to01()) == v
            assert v.popcount() == int(bits.sum())

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=200))
    @example([1] * 64)
    @example([0, 1] * 64)
    @example([1] + [0] * 63 + [1])
    def test_text_matches_per_bit_oracle(self, bits):
        v = BitVector.from_bits(bits)
        text = bits_text(v)
        assert text == "".join(map(str, bits))
        assert v.to01() == text
        if bits:
            assert BitVector.from01(text) == v
            assert BitVector.from01(f" {text}\n") == v
        assert v.popcount() == sum(bits)
        assert v.to_array().tolist() == bits
        assert v.words.tolist() == [
            sum(b << (i % 64) for i, b in enumerate(bits) if i // 64 == w)
            for w in range(-(-len(bits) // 64))
        ]
        for i, b in enumerate(bits):
            assert v[i] == b
            flipped = bits[:i] + [1 - b] + bits[i + 1:]
            assert v.flip(i).to01() == "".join(map(str, flipped))
        for i in (-1, len(bits)):
            with pytest.raises(IndexError):
                v[i]
            with pytest.raises(IndexError):
                v.flip(i)

    def test_value_is_the_pattern(self):
        rng = random.Random(0)
        for h in range(1, 131):
            for j in (0, 1 << (h - 1), (1 << h) - 1, rng.getrandbits(h)):
                v = BitVector(h, j)
                assert v == BitVector.from_bits([(j >> i) & 1 for i in range(h)])
                assert v.value == j
        for n, value in ((0, 1), (3, 8), (64, 1 << 64), (3, -1)):
            with pytest.raises(DimensionMismatch):
                BitVector(n, value)
        assert BitVector(1, 0) != BitVector(2, 0)
        assert len({BitVector(1, 0), BitVector(2, 0)}) == 2
        with pytest.raises(ValueError, match="read-only"):
            BitVector(70, 5).words[0] = 1

    @pytest.mark.parametrize(
        "text",
        ["0 1", "01\t10", "\u0661\u0660", "2", "012", "0b1", "", "  \n",
         "1_0", "+1", "-1"],
    )
    def test_from01_rejects(self, text):
        with pytest.raises(FormatError, match="not a 0/1 string"):
            BitVector.from01(text)

    def test_flip_and_index(self):
        v = BitVector.from_bits([0, 1, 0])
        w = v.flip(0)
        assert w.to01() == "110"
        assert w.flip(0) == v
        assert v[1] == 1 and v[2] == 0

    def test_hashable(self):
        a = BitVector.from_bits([1, 0, 1])
        b = BitVector.from01("101")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_immutable(self):
        v = BitVector.from_bits([1, 0])
        with pytest.raises(AttributeError):
            v.n = 3
