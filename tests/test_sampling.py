import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluhom import sampling
from reluhom.errors import DimensionMismatch
from oracles import circle_points, torus_points


def same_doubles(a, b):
    """The same float64 values bit for bit (NaN payloads and -0.0 included)."""
    return a.dtype == np.float64 and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


@st.composite
def anchor_families(draw, count):
    """`count` anchors of one drawn dimension 1-64 and scale, with or
    without an offset anchor."""
    dim = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-3, 1e3))
    offset_index = draw(st.none() | st.integers(0, count - 1))
    return sampling.AnchorFamily(
        tuple(rng.standard_normal((count, dim)) * scale), offset_index=offset_index
    )


@settings(max_examples=60, deadline=None)
@given(
    anchor_families(3),
    st.integers(1, 2000),
    st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
)
def test_circle_samples_are_the_per_point_doubles(family, count, theta_range):
    pts = sampling.circle_samples(family, count, theta_range)
    assert same_doubles(pts, np.array(circle_points(family, count, theta_range)))


@settings(max_examples=60, deadline=None)
@given(
    anchor_families(5),
    st.integers(1, 45),
    st.integers(1, 45),
    st.floats(-10, 10),
    st.sampled_from(["grid", "uniform"]),
    st.integers(0, 2**32 - 1),
)
def test_torus_samples_are_the_per_point_doubles(family, n1, n2, alpha, mode, seed):
    pts = sampling.torus_samples(
        family, n1, n2, alpha, mode, rng=np.random.default_rng(seed)
    )
    want = torus_points(family, n1, n2, alpha, mode, rng=np.random.default_rng(seed))
    assert same_doubles(pts, np.array(want))


class TestAnchorFamily:
    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            sampling.AnchorFamily([np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0])])

    def test_matrix_anchors_are_flattened(self):
        fam = sampling.AnchorFamily([np.eye(2), np.ones((2, 2))])
        assert fam.dim == 4


class TestCircle:
    def test_quarter_points_fixture(self):
        # A1=e2, A2=e3, N=4: thetas 0, pi/2, pi, 3pi/2
        fam = sampling.AnchorFamily(
            [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        )
        pts = np.stack(sampling.circle_samples(fam, 4))
        want = np.array(
            [[0, 0, 1], [0, 1, 0], [0, 0, -1], [0, -1, 0]], dtype=float
        )
        assert np.allclose(pts, want, atol=1e-12)

    def test_offset_translates(self):
        a3 = np.array([5.0, -1.0, 2.0])
        fam0 = sampling.AnchorFamily(
            [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        )
        fam1 = sampling.AnchorFamily(
            [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), a3],
            offset_index=2,
        )
        p0 = np.stack(sampling.circle_samples(fam0, 7))
        p1 = np.stack(sampling.circle_samples(fam1, 7))
        assert np.allclose(p1, p0 + a3)

    def test_points_lie_on_planted_circle(self):
        anchors = sampling.random_orthogonal_anchors(6, 3, seed=5)
        fam = sampling.AnchorFamily(anchors[1:3] + [anchors[0]], offset_index=2)
        pts = np.stack(sampling.circle_samples(fam, 40))
        rel = pts - anchors[0]
        assert np.allclose(np.linalg.norm(rel, axis=1), 1.0)
        basis = np.stack(anchors[1:3])
        assert np.allclose(rel @ basis.T @ basis, rel, atol=1e-10)

    def test_even_spacing_half_open(self):
        fam = sampling.AnchorFamily([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        pts = np.stack(sampling.circle_samples(fam, 8))
        assert pts.shape == (8, 2)
        assert not np.allclose(pts[0], pts[-1])
        gaps = [np.linalg.norm(pts[(i + 1) % 8] - pts[i]) for i in range(8)]
        assert np.allclose(gaps, gaps[0])

    def test_antipodal_symmetry_even_n(self):
        fam = sampling.AnchorFamily([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        pts = np.stack(sampling.circle_samples(fam, 10))
        for k in range(10):
            assert np.allclose(pts[(k + 5) % 10], -pts[k], atol=1e-12)

    def test_custom_theta_range(self):
        fam = sampling.AnchorFamily([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        pts = sampling.circle_samples(fam, 3, theta_range=(1.0, 1.0 + 2 * np.pi))
        assert np.allclose(pts[0], [np.sin(1.0), np.cos(1.0)])

    def test_needs_two_anchors(self):
        with pytest.raises(DimensionMismatch):
            sampling.circle_samples(sampling.AnchorFamily([np.array([1.0])]), 10)


class TestTorus:
    def make_family(self):
        anchors = sampling.random_orthogonal_anchors(8, 5, seed=9)
        return anchors, sampling.AnchorFamily(anchors)

    def test_grid_shape_and_planted_geometry(self):
        anchors, fam = self.make_family()
        pts = np.stack(sampling.torus_samples(fam, 10, 10, alpha=2.0))
        assert pts.shape == (100, 8)
        rel = pts - anchors[4]
        b1 = np.stack(anchors[0:2])
        b2 = np.stack(anchors[2:4])
        assert np.allclose(np.linalg.norm(rel @ b1.T, axis=1), 2.0)
        assert np.allclose(np.linalg.norm(rel @ b2.T, axis=1), 2.0)

    def test_alpha_zero_collapses_to_offset(self):
        anchors, fam = self.make_family()
        pts = np.stack(sampling.torus_samples(fam, 3, 3, alpha=0.0))
        assert np.allclose(pts, anchors[4])

    def test_distance_from_offset_is_sqrt2(self):
        anchors, fam = self.make_family()
        pts = np.stack(sampling.torus_samples(fam, 6, 6, alpha=1.0))
        assert np.allclose(np.linalg.norm(pts - anchors[4], axis=1), np.sqrt(2.0))

    def test_n2_one_degenerates_to_circle(self):
        anchors, fam = self.make_family()
        torus = np.stack(sampling.torus_samples(fam, 12, 1, alpha=1.0))
        circle_fam = sampling.AnchorFamily(list(anchors), offset_index=4)
        circle = np.stack(sampling.circle_samples(circle_fam, 12))
        # theta2 = 0 contributes the constant cos(0) A4 term
        assert np.allclose(torus, circle + anchors[3])

    def test_uniform_mode_deterministic_per_seed(self):
        _, fam = self.make_family()
        a = sampling.torus_samples(fam, 5, 5, mode="uniform", rng=np.random.default_rng(3))
        b = sampling.torus_samples(fam, 5, 5, mode="uniform", rng=np.random.default_rng(3))
        assert np.array_equal(np.stack(a), np.stack(b))

    @pytest.mark.parametrize("mode", ["grid", "uniform"])
    @pytest.mark.parametrize("n1, n2", [(0, 3), (3, 0), (-3, 3), (-3, -3)])
    def test_non_positive_counts_rejected(self, mode, n1, n2):
        _, fam = self.make_family()
        with pytest.raises(DimensionMismatch, match="n1 and n2 must be >= 1"):
            sampling.torus_samples(fam, n1, n2, mode=mode)

    def test_needs_five_anchors(self):
        anchors = sampling.random_orthogonal_anchors(8, 4, seed=1)
        with pytest.raises(DimensionMismatch):
            sampling.torus_samples(sampling.AnchorFamily(anchors), 3, 3)


class TestAnchorGenerator:
    def test_orthonormal_and_deterministic(self):
        a = sampling.random_orthogonal_anchors(12, 5, seed=77)
        b = sampling.random_orthogonal_anchors(12, 5, seed=77)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        G = np.stack(a) @ np.stack(a).T
        assert np.allclose(G, np.eye(5), atol=1e-10)

    def test_single_anchor_is_unit(self):
        (v,) = sampling.random_orthogonal_anchors(4, 1, seed=2)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    @pytest.mark.parametrize("count", [0, -2])
    def test_non_positive_count_rejected(self, count):
        with pytest.raises(DimensionMismatch, match="count must be >= 1"):
            sampling.random_orthogonal_anchors(3, count, seed=0)

    def test_too_many_anchors_rejected(self):
        with pytest.raises(DimensionMismatch):
            sampling.random_orthogonal_anchors(3, 4, seed=0)
