"""Per-pattern polyhedra: inequality assembly, facet pruning, affine maps.

Every activation pattern induces a system A x <= c whose rows stack
layer-major; pruning it to the essential subsystem identifies the active
bits, and flipping an active bit walks to the facet-neighbor.
"""

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import (
    BoundaryPointError,
    DegenerateSystemError,
    DimensionMismatch,
    InfeasibleSystemError,
)
from .network import BitVector, TAU_BIT, bit_vector, on_boundary

_DUP_TOL = 1e-9
# rays shot from each region's interior point to certify facets without LPs
_N_RAYS = 64
_RAY_SEED = 0
# n-subsets of those facets tried as weak-duality certificates of redundancy
_N_BASES = 256
_DUAL_TOL = 1e-9   # residual of a certificate, relative to its row's largest entry


@dataclass(frozen=True)
class Region:
    """A full-dimensional linear region and its pruned description."""

    bits: BitVector
    A: np.ndarray
    c: np.ndarray
    A_essential: np.ndarray
    c_essential: np.ndarray
    active_bits: tuple
    affine: tuple          # (M, v) with network output = M x + v on the region
    interior: np.ndarray   # Chebyshev-style strict interior witness

    def to_json(self):
        M, v = self.affine
        return json.dumps(
            {
                "bits": self.bits.to01(),
                "essential_rows": [
                    {"a": a.tolist(), "c": float(ci)}
                    for a, ci in zip(self.A_essential, self.c_essential)
                ],
                "active_bits": list(self.active_bits),
                "affine": {"matrix": M.tolist(), "offset": v.tolist()},
                "interior_point": self.interior.tolist(),
            }
        )


def _hat_maps(net, bits):
    """A pattern's system (A, c) and output map (M, v), from one pass.

    Hidden layer j's pre-activations are What_j x + bhat_j on the region,
    composed through the 0/1 masks of the layers before it; the output
    layer composed the same way gives M x + v.
    """
    if len(bits) != net.h:
        raise DimensionMismatch(f"bit vector length {len(bits)} != h = {net.h}")
    offsets = net.bit_offsets()
    bit_arr = bits.to_array().astype(np.float64)
    A_blocks = []
    c_blocks = []
    w_hat = net.weights[0]
    b_hat = net.biases[0]
    for j in range(net.n_hidden_layers):
        s = bit_arr[offsets[j]: offsets[j + 1]]
        sign = 1.0 - 2.0 * s  # bit 1 -> -1
        A_blocks.append(sign[:, None] * w_hat)
        c_blocks.append(sign * (-b_hat))
        w_hat, b_hat = _compose(net, j, s, w_hat, b_hat)
    return (np.vstack(A_blocks), np.concatenate(c_blocks)), (w_hat, b_hat)


def _compose(net, j, s, w_hat, b_hat):
    """Layer j + 1's map on the region from hidden layer j's map and 0/1 mask s.

    Hidden layer j's pre-activations are w_hat x + b_hat; the ReLU keeps
    the nodes with s = 1, and layer j + 1 applies its affine map to them.
    """
    return (
        net.weights[j + 1] @ (s[:, None] * w_hat),
        net.weights[j + 1] @ (s * b_hat) + net.biases[j + 1],
    )


def assemble(net, bits):
    """Inequality system A x <= c of an activation pattern (rows layer-major)."""
    return _hat_maps(net, bits)[0]


def affine_map(net, bits):
    """The affine map (M, v) the network applies on this pattern's region."""
    return _hat_maps(net, bits)[1]


def _duplicate_rows(A, c):
    """Indices of rows repeating an earlier hyperplane (same row up to scale).

    Row j repeats row i < j when their normalised (a, c) agree within
    _DUP_TOL entry by entry and row i is not itself a repeat.  Such rows are
    close in Euclidean distance too, so the Gram matrix of the normalised
    rows picks the candidate pairs, and the entrywise test decides them.
    """
    norms = np.linalg.norm(A, axis=1)
    dup = np.zeros(A.shape[0], dtype=bool)
    nz = np.flatnonzero(norms > 0)
    N = np.hstack([A[nz], c[nz, None]]) / norms[nz, None]
    sq = np.einsum("ij,ij->i", N, N)
    pair_sq = sq[:, None] + sq[None, :]
    # entrywise within _DUP_TOL means a squared distance of at most
    # k _DUP_TOL^2; the second term bounds the rounding of the Gram form
    k = N.shape[1]
    near = pair_sq - 2.0 * (N @ N.T) <= (
        k * _DUP_TOL**2 + 4 * (k + 2) * np.finfo(np.float64).eps * pair_sq
    )
    first, later = np.nonzero(np.triu(near, 1))
    same = np.abs(N[first] - N[later]).max(axis=1) <= _DUP_TOL
    # pairs come in ascending order of the first row, so dup[i] is final
    # before row i marks its repeats
    for i, j in zip(nz[first[same]].tolist(), nz[later[same]].tolist()):
        if not dup[i]:
            dup[j] = True
    return dup


@functools.lru_cache(maxsize=None)
def _rays(n):
    """The fixed, read-only (n, _N_RAYS) unit directions of input dimension n."""
    d = np.random.default_rng(_RAY_SEED).standard_normal((n, _N_RAYS))
    d /= np.linalg.norm(d, axis=0)
    d.flags.writeable = False
    return d


def _ray_facets(A, b, tau_lp):
    """Rows of A y <= b (b > 0) that a ray from y = 0 proves essential.

    Ray d meets row i at t_i = b_i / (a_i.d) when a_i.d > 0.  If row i is
    met first and every other row no earlier than t2, the point t2 d
    satisfies all other rows and exceeds row i by (a_i.d) t2 - b_i
    (infinite when no other row is met).  When that exceeds tau_lp, the
    redundancy LP of row i, against these rows or any subset of them,
    keeps the row.
    """
    facet = np.zeros(A.shape[0], dtype=bool)
    if A.shape[0] == 0:
        return facet
    P = A @ _rays(A.shape[1])
    T = np.divide(b[:, None], P, out=np.full(P.shape, np.inf), where=P > 0)
    cols = np.arange(T.shape[1])
    first = T.argmin(axis=0)
    hit = np.isfinite(T[first, cols])
    T[first, cols] = np.inf
    first, cols = first[hit], cols[hit]
    over = P[first, cols] * T[:, cols].min(axis=0) - b[first]
    facet[first[over > tau_lp]] = True
    return facet


def _dual_implied(A, b, facet, tau_lp):
    """Rows of A y <= b that weak duality over the certified facets drops.

    For an n-subset B of the facet rows and a row i outside them, a
    lambda >= 0 with A_B^T lambda = a_i gives a_i.y = lambda.A_B y <=
    lambda.b_B on every system that contains B.  When that bound is at most
    b_i + tau_lp, the redundancy LP of row i against any survivor set
    containing B drops the row, so it needs no LP.  The first _N_BASES
    subsets are tried in one batch; the pseudo-inverse gives the
    least-squares lambda of a singular A_B (parallel facets), which counts
    only when its residual is tiny.
    """
    implied = np.zeros(A.shape[0], dtype=bool)
    rest = np.flatnonzero(~facet)
    n = A.shape[1]
    subsets = itertools.combinations(np.flatnonzero(facet).tolist(), n)
    bases = np.array(list(itertools.islice(subsets, _N_BASES)), np.int64).reshape(-1, n)
    if rest.size == 0 or bases.shape[0] == 0:
        return implied
    AB_T = A[bases].transpose(0, 2, 1)                 # (bases, n, n)
    targets = A[rest].T                                # (n, rows)
    lam = np.linalg.pinv(AB_T) @ targets               # (bases, n, rows)
    residual = np.abs(AB_T @ lam - targets).max(axis=1)
    bound = np.einsum("kn,knr->kr", b[bases], lam)
    certified = (
        (lam.min(axis=1) >= 0)
        & (residual <= _DUAL_TOL * np.abs(targets).max(axis=0))
        & (bound <= b[rest] + tau_lp)
    )
    implied[rest[certified.any(axis=0)]] = True
    return implied


def _inscribed_ball(A, c, tau_dim):
    """Chebyshev center and radius of A x <= c, which must exceed tau_dim.

    The radius is capped above tau_dim (at 1 by default); any such cap
    decides full dimension as the uncapped radius would.  An empty system
    raises InfeasibleSystemError, a radius at most tau_dim
    DegenerateSystemError.
    """
    center, radius = lp.chebyshev_center(A, c, r_cap=max(1.0, 2.0 * tau_dim))
    if radius <= tau_dim:
        raise DegenerateSystemError(
            f"region is not full-dimensional: Chebyshev radius {radius:.3g} "
            f"<= tau_dim {tau_dim:g}"
        )
    return center, radius


def essentialize(A, c, tau_lp=lp.TAU_LP, tau_dim=lp.TAU_DIM):
    """Minimal subsystem (A', c'), the surviving row indices and an interior point.

    One Chebyshev LP, its radius capped above tau_dim (at 1 by default),
    decides feasibility (InfeasibleSystemError) and full dimension
    (DegenerateSystemError when the radius is at most tau_dim) and gives the
    interior witness z returned last.  Zero rows go, and identical
    hyperplanes keep the lowest-index copy.

    The rest is worked out on the system translated to z, A y <= c - A z,
    whose right-hand side is at least the radius times each row norm.  Rows
    are decided in ascending order against the current survivor set: row i
    is redundant when the maximum of a_i.y over the other survivors is at
    most its right-hand side plus tau_lp.  Two certificates decide rows
    without an LP, each exactly as the LP would: a row that one of _N_RAYS
    fixed rays from z certifies (_ray_facets: an explicit point past the
    row by more than tau_lp) is kept, and a row that a non-negative
    combination of n certified facets bounds by at most its right-hand
    side plus tau_lp (_dual_implied: weak duality) is dropped.  Every other
    row gets one redundancy LP, which starts from the slack basis.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    c = np.asarray(c, dtype=np.float64)
    if A.shape[0] != c.size:
        raise DimensionMismatch(f"rows {A.shape[0]} != rhs length {c.size}")
    center, _ = _inscribed_ball(A, c, tau_dim)

    b = c - A @ center
    norms = np.linalg.norm(A, axis=1)
    keep = [int(i) for i in np.nonzero((norms > 0) & ~_duplicate_rows(A, c))[0]]
    facet = _ray_facets(A[keep], b[keep], tau_lp)
    implied = _dual_implied(A[keep], b[keep], facet, tau_lp)
    pos = 0
    for certified, dropped in zip(facet, implied):
        if dropped or (
            not certified and lp.is_redundant(A[keep], b[keep], pos, tau_lp)
        ):
            del keep[pos]
        else:
            pos += 1
    keep = np.array(keep, dtype=np.int64)
    return A[keep], c[keep], keep, center


def region_of(net, x, tau_bit=TAU_BIT, tau_lp=lp.TAU_LP, tau_dim=lp.TAU_DIM):
    """The region containing x, with pruned system, actives, and affine map."""
    if on_boundary(net, x, tau_bit):
        raise BoundaryPointError(
            "point has a pre-activation within tolerance of zero"
        )
    bits = bit_vector(net, x, tau_bit)
    return region_from_bits(net, bits, tau_lp=tau_lp, tau_dim=tau_dim)


def region_from_bits(net, bits, extra_A=None, extra_c=None,
                     tau_lp=lp.TAU_LP, tau_dim=lp.TAU_DIM):
    """Build a Region for a pattern, optionally intersected with extra rows.

    Extra rows (e.g. box bounds) take indices h, h+1, ... in active_bits.
    """
    (A, c), affine = _hat_maps(net, bits)
    if extra_A is not None:
        A = np.vstack([A, extra_A])
        c = np.concatenate([c, extra_c])
    try:
        A_ess, c_ess, active, center = essentialize(A, c, tau_lp, tau_dim)
    except (InfeasibleSystemError, DegenerateSystemError) as err:
        raise type(err)(f"pattern {bits.to01()}: {err}") from err
    return Region(
        bits=bits,
        A=A,
        c=c,
        A_essential=A_ess,
        c_essential=c_ess,
        active_bits=tuple(int(i) for i in active),
        affine=affine,
        interior=center,
    )


def neighbors(region):
    """Bit vectors of the facet-neighbors: one active-bit flip each.

    Active indices >= h = len(region.bits) are box rows, when present; they
    are not flippable and are skipped.
    """
    h = len(region.bits)
    return [region.bits.flip(k) for k in region.active_bits if k < h]


def facet_points(A, c, k, count, rng, tau_dim=lp.TAU_DIM):
    """Sample `count` points from the relative interior of facet k.

    The facet is {x : a_k x = c_k} intersected with the remaining rows;
    points are drawn inside the facet's inscribed ball and along random
    chords through its center.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    c = np.asarray(c, dtype=np.float64)
    a = A[k]
    rest = np.delete(np.arange(A.shape[0]), k)
    x0 = a * (c[k] / (a @ a))
    # orthonormal basis of the hyperplane through x0
    _, _, vh = np.linalg.svd(a[None, :])
    basis = vh[1:].T
    if basis.shape[1] == 0:
        # one-dimensional input: the facet is the single point x0, which
        # must satisfy every other row (strictly, unless the row is the
        # same hyperplane) to be a genuine shared wall
        slack = c[rest] - A[rest] @ x0
        parallel = np.abs(
            np.abs(A[rest] @ a) - np.linalg.norm(A[rest], axis=1) * np.linalg.norm(a)
        ) <= 1e-12
        if np.any(slack < np.where(parallel, -tau_dim, tau_dim)):
            raise DegenerateSystemError("facet is lower-dimensional")
        return [x0 for _ in range(count)]
    A_red = A[rest] @ basis
    c_red = c[rest] - A[rest] @ x0
    z0, r = lp.chebyshev_center(A_red, c_red, r_cap=1.0)
    if r <= tau_dim:
        raise DegenerateSystemError("facet is lower-dimensional")
    pts = []
    for _ in range(count):
        d = rng.standard_normal(basis.shape[1])
        d /= np.linalg.norm(d)
        t = rng.uniform(0.0, 0.9 * min(r, 1.0))
        pts.append(x0 + basis @ (z0 + t * d))
    return pts
