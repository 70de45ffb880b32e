"""Per-pattern polyhedra: inequality systems, facet pruning, affine maps.

Every activation pattern induces a system A x <= c whose rows stack
layer-major; `_hat_maps` builds every system, a whole pattern's or a
brute-force prefix's.  Pruning it to the essential subsystem identifies
the active bits, and flipping an active bit walks to the facet-neighbor.
A Region keeps only that subsystem, its affine map and an interior
witness.  Patterns are worked on as stacks of same-shape systems, each
step once per stack.

An atlas's regions, brute force's leaves or the regions traversal
reaches, take the two halves of `_essentialize` apart: `_balls` runs
their Chebyshev LPs as one stream over systems built a chunk at a time,
and `_essential` decides the surviving rows of a block of them, with
the candidates their flips settle (`enumeration._flips`) taken out of
the redundancy LPs.  `region_from_bits` builds one region as a stack of
one, for `region_of` and a traversal seed that is not full-dimensional,
and raises the error `_ball_error` builds for such a pattern; there
`_essentialize` runs its Chebyshev LPs, `_centred`, a redundancy LP for
every candidate and `_settled` in turn.
"""

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels, lp
from .errors import (
    BoundaryPointError,
    DegenerateSystemError,
    DimensionMismatch,
    InfeasibleSystemError,
)
from .network import BitVector, PackedBits, TAU_BIT, bit_vector, on_boundary

_DUP_TOL = 1e-9


@dataclass(frozen=True)
class Region:
    """A full-dimensional linear region and its pruned description."""

    bits: BitVector
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


def _hat_maps(net, patterns, extra=None):
    """The stacked systems (A, c) of patterns of k <= h bits (a PackedBits
    or a sequence of BitVectors) and their maps (M, v), in one pass: every
    system, a whole pattern's or a brute-force prefix's, is built here.

    Hidden layer j's pre-activations are What_j x + bhat_j on a region,
    composed through the 0/1 masks of the layers before it once the prefix
    holds bits past them, and bit i sets the sign of row i.  So k bits give
    the first k rows of every whole pattern they begin, bit for bit, and
    the stacked products round as one region's would.  Extra rows (B, d),
    e.g. box bounds, follow them in every system as rows k, k+1, ...; each
    system is allocated once and filled in place.  Whole patterns get the
    output layer composed the same way, M x + v; a shorter prefix gets the
    pre-activation map of the layer its last bit is in.
    """
    offsets = net.bit_offsets()
    patterns = PackedBits.of(patterns)
    k = patterns.h
    bit_arr = patterns.unpack()
    B, d = (np.empty((0, net.input_dim)), np.empty(0)) if extra is None else extra
    A = np.empty((len(patterns), k + len(d), net.input_dim))
    c = np.empty((len(patterns), k + len(d)))
    A[:, k:], c[:, k:] = B, d
    w_hat, b_hat = net.weights[0], net.biases[0]
    for j in range(net.n_hidden_layers):
        lo, hi = offsets[j], min(offsets[j + 1], k)
        s = bit_arr[:, lo:hi]
        sign = 1.0 - 2.0 * s  # bit 1 -> -1
        np.multiply(sign[:, :, None], w_hat[..., :hi - lo, :], out=A[:, lo:hi])
        np.multiply(sign, -b_hat[..., :hi - lo], out=c[:, lo:hi])
        if k < net.h and k <= offsets[j + 1]:
            break
        # the ReLU keeps the nodes with s = 1, and layer j + 1 applies its
        # affine map to them
        w_hat, b_hat = (
            net.weights[j + 1] @ (s[:, :, None] * w_hat),
            (net.weights[j + 1] @ (s * b_hat)[:, :, None])[:, :, 0] + net.biases[j + 1],
        )
    return (A, c), (w_hat, b_hat)


def _duplicate_rows(A, c, norms):
    """Rows of each stacked system repeating an earlier hyperplane (same row
    up to scale); `norms` is A's row norms.

    Row j repeats row i < j when their normalised (a, c) agree within
    _DUP_TOL entry by entry and row i is not itself a repeat.  Such rows are
    close in Euclidean distance too, so the Gram matrix of a system's
    normalised rows picks the candidate pairs, and the entrywise test
    decides them.  Zero rows repeat nothing.
    """
    nz = norms > 0
    N = np.concatenate([A, c[:, :, None]], axis=2) / np.where(nz, norms, 1.0)[:, :, None]
    sq = np.einsum("sij,sij->si", N, N)
    pair_sq = sq[:, :, None] + sq[:, None, :]
    # entrywise within _DUP_TOL means a squared distance of at most
    # k _DUP_TOL^2; the second term bounds the rounding of the Gram form.
    # Both sides are worked out in place: two (m, m) arrays per system
    k = N.shape[2]
    dist = N @ N.transpose(0, 2, 1)
    dist *= -2.0
    dist += pair_sq
    pair_sq *= 4 * (k + 2) * np.finfo(np.float64).eps
    pair_sq += k * _DUP_TOL**2
    rows = np.arange(c.shape[1])
    near = (dist <= pair_sq) & nz[:, :, None] & nz[:, None, :] & (rows[:, None] < rows)
    system, first, later = np.nonzero(near)
    same = np.abs(N[system, first] - N[system, later]).max(axis=1) <= _DUP_TOL
    dup = np.zeros(nz.shape, dtype=bool)
    # pairs come in ascending order of system and first row, so dup[s, i]
    # is final before row i marks its repeats
    for s, i, j in zip(system[same].tolist(), first[same].tolist(), later[same].tolist()):
        if not dup[s, i]:
            dup[s, j] = True
    return dup


def _r_cap(tau_dim):
    """The cap on Chebyshev radii: above tau_dim (at 1 by default), so it
    decides full dimension as no cap would."""
    return max(1.0, 2.0 * tau_dim)


def _inscribed_balls(A, c, systems, tau_dim):
    """Chebyshev centers and radii of the stacked systems A[systems], c[systems],
    as one stream of LPs, capped at `_r_cap`."""
    return lp.chebyshev_centers(A, c, _r_cap(tau_dim), systems)


def _system_bytes(m, n):
    # the largest one-system temporary of _essentialize: the condensed
    # (m + 2) x (2 n + 3) tableau of its Chebyshev LP, or each (m, m)
    # product of _duplicate_rows, the larger from m = 11 rows at n = 3
    return 8 * max((m + 2) * (2 * n + 3), m * m)


def _ball_error(A, c, radius, tau_dim):
    """The geometry error of a system A x <= c that its Chebyshev radius
    `radius` (at most tau_dim) rejects: InfeasibleSystemError when a zero
    row reads 0 <= c_i < -TAU_LP or the signed radius is below -TAU_LP,
    else DegenerateSystemError."""
    zero = np.linalg.norm(A, axis=1) == 0
    bad = np.flatnonzero(zero & (c < -lp.TAU_LP))
    if bad.size:
        return InfeasibleSystemError(
            f"Chebyshev LP is infeasible: row {bad[0]} is 0 <= {c[bad[0]]:.3g}"
        )
    if radius < -lp.TAU_LP:
        return InfeasibleSystemError(
            f"Chebyshev LP is infeasible: signed radius {radius:.3g} < 0, "
            f"the {np.count_nonzero(~zero)} rows have no common point"
        )
    return DegenerateSystemError(
        f"region is not full-dimensional: Chebyshev radius {radius:.3g} "
        f"<= tau_dim {tau_dim:g}"
    )


class _Centred(NamedTuple):
    """Full-dimensional systems A x <= c between their Chebyshev and
    redundancy halves: b = c - A z at their centers z, the candidate rows
    (cand), and the system and row of each candidate left to a redundancy
    LP."""

    A: np.ndarray
    c: np.ndarray
    b: np.ndarray
    cand: np.ndarray
    system: np.ndarray
    row: np.ndarray


def _centred(A, c, centers, norm):
    """The full-dimensional systems A x <= c, of row norms `norm`,
    translated to interior points (their Chebyshev centers), every
    candidate left to its LP: zero rows and repeated hyperplanes are no
    candidates.  `_duplicate_rows` takes a block of systems at a time, so
    any number of them can be centred."""
    b = c - (A @ centers[:, :, None])[:, :, 0]
    cand = norm > 0
    for blk in _kernels.blocks(len(A), _system_bytes(*A.shape[1:])):
        cand[blk] &= ~_duplicate_rows(A[blk], c[blk], norm[blk])
    return _Centred(A, c, b, cand, *np.nonzero(cand))


def _settled(centred, dropped, x, tau_lp):
    """The surviving rows of centred's systems, from the answers of its
    redundancy LPs: which rows each drops, and the point where each ends.
    The batch's answers are settled by the sequential rule, and the few
    rows it leaves are decided by the sequence itself (see
    `_essentialize`)."""
    A, _, b, cand, system, row = centred
    cols = np.arange(b.shape[1])
    binds = np.zeros((row.size, cols.size), dtype=bool)  # earlier rows tight at the optimum
    for blk in _kernels.blocks(row.size, _system_bytes(*A.shape[1:])):
        s, i = system[blk], row[blk]
        binds[blk] = (b[s] - (A[s] @ x[blk, :, None])[:, :, 0] <= tau_lp) & (cols < i[:, None])
    alive = cand.copy()
    alive[system[dropped], row[dropped]] = False
    unsure = dropped & (binds & (cand & ~alive)[system]).any(axis=1)
    pending = np.zeros(b.shape, dtype=bool)
    pending[system[unsure], row[unsure]] = True
    while pending.any():
        test = np.flatnonzero(pending.any(axis=1))
        i = pending[test].argmax(axis=1)
        rest = np.where(cols < i[:, None], alive[test], cand[test])
        alive[test, i] = ~lp.redundant_rows(A[test], b[test], rest, i, tau_lp)[0]
        pending[test, i] = False
    return alive


def _essentialize(A, c, tau_lp, tau_dim):
    """The minimal subsystems of stacked systems A x <= c: a mask of the
    surviving rows, and each system's Chebyshev center and radius.

    One Chebyshev LP per system, its radius capped above tau_dim (at 1 by
    default), decides feasibility and full dimension and gives the
    interior witness z.  A system of radius at most tau_dim keeps no rows;
    `_ball_error` names its InfeasibleSystemError or DegenerateSystemError.
    Zero rows go, and identical hyperplanes keep the lowest-index copy.

    The rest is worked out on the system translated to z, A y <= c - A z,
    whose right-hand side is at least the radius times each row norm.  Rows
    are decided in ascending order against the current survivor set: row i
    is redundant when the maximum of a_i.y over the other survivors (the
    rows before i that stay, and every candidate after it) is at most its
    right-hand side plus tau_lp.

    Every candidate gets one redundancy LP against all other candidates,
    all of them in one stream of LPs, and the batch's answers are settled
    by the sequential rule.  A row the batch keeps is kept: its sequential
    survivors are a subset of the batch's, and a maximum over fewer rows is
    no smaller.  A row the batch drops is dropped when no earlier row the
    batch drops has slack at most tau_lp at its optimum: rows that do not
    bind can go without moving the optimum, and the sequence drops no row
    the batch keeps.  The few rows left are decided by the sequence itself,
    one LP each, with the next of every system that has one in one stack,
    so each system's rows are decided as they would be alone.  Every LP
    starts from the slack basis.

    The two halves are `_centred` and `_settled` around the redundancy
    LPs (`_essential`), which the atlas's leaves run apart from the
    Chebyshev LPs, some candidates settled by their flips with no LP
    (`enumeration._found`).
    """
    centers, radii = _inscribed_balls(A, c, np.arange(len(A)), tau_dim)
    ok = np.flatnonzero(radii > tau_dim)
    keep = np.zeros(c.shape, dtype=bool)
    keep[ok] = _essential(A[ok], c[ok], centers[ok], tau_lp, np.linalg.norm(A[ok], axis=2))
    return keep, centers, radii


def _essential(A, c, centers, tau_lp, norm, prune=None):
    """The surviving rows of full-dimensional systems A x <= c, of row norms
    `norm`, from their Chebyshev centers, as `_essentialize` decides them:
    `_centred`, its redundancy LPs and `_settled`.  prune(centred), when
    given, takes out of the LPs the candidates it settles: a row it proves
    a facet stays a candidate, a row it proves no facet does not."""
    w = _centred(A, c, centers, norm)
    if prune is not None:
        w = prune(w)
    dropped, x = lp.redundant_rows(w.A, w.b, w.cand, w.row, tau_lp, w.system)
    return _settled(w, dropped, x, tau_lp)


def region_of(net, x, tau_bit=TAU_BIT, tau_lp=lp.TAU_LP, tau_dim=lp.TAU_DIM):
    """The region containing x, with pruned system, actives, and affine map."""
    if on_boundary(net, x, tau_bit):
        raise BoundaryPointError(
            "point has a pre-activation within tolerance of zero"
        )
    bits = bit_vector(net, x, tau_bit)
    return region_from_bits(net, bits, tau_lp=tau_lp, tau_dim=tau_dim)


def _regions(bits, A, c, keep, maps, centers):
    """The Regions of full-dimensional systems A x <= c with their
    surviving rows keep, maps (M, v) and Chebyshev centers.  A Region keeps
    no whole system: its arrays are views of its own part of one copy of
    the systems' essential rows (gathered from the systems), maps and
    centers."""
    system, active = np.nonzero(keep)
    ends = np.cumsum(np.bincount(system, minlength=len(A))).tolist()
    A_ess, c_ess = A[system, active], c[system, active]
    active = active.tolist()
    return [
        Region(
            bits=bits, A_essential=A_ess[lo:hi], c_essential=c_ess[lo:hi],
            active_bits=tuple(active[lo:hi]), affine=(M_s, v_s), interior=z_s,
        )
        for bits, M_s, v_s, z_s, lo, hi in zip(bits, *maps, centers, [0] + ends, ends)
    ]


def _blocks(net, patterns, extra_A, extra_c, tau_lp, tau_dim):
    """Per block of patterns: its stacked systems (A, c), their Chebyshev
    radii, and the Regions of its full-dimensional patterns, in order."""
    patterns = PackedBits.of(patterns)
    if len(patterns) and patterns.h != net.h:
        raise DimensionMismatch(f"bit vector length {patterns.h} != h = {net.h}")
    extra = None if extra_A is None else (extra_A, extra_c)
    rows = net.h + (0 if extra is None else len(extra_c))
    for blk in _kernels.blocks(len(patterns), _system_bytes(rows, net.input_dim)):
        packed = patterns.packed[blk]
        (A, c), (M, v) = _hat_maps(net, PackedBits(packed, net.h), extra)
        keep, centers, radii = _essentialize(A, c, tau_lp, tau_dim)
        ok = radii > tau_dim        # the full-dimensional systems; the others keep no row
        yield A, c, radii, _regions(PackedBits(packed[ok], net.h), A[ok], c[ok], keep[ok],
                                    (M[ok], v[ok]), centers[ok])


def _balls(net, patterns, extra, tau_dim):
    """Chebyshev centers and radii of the whole patterns (a PackedBits),
    the extra rows (B, d) appended, as one stream of LPs whose gather
    builds each chunk's systems (`_hat_maps`, `lp.chebyshev_batch`): no
    more than a chunk of systems exists."""
    def build(idx):
        (A, c), _ = _hat_maps(net, PackedBits(patterns.packed[idx], patterns.h), extra)
        return A, c, np.linalg.norm(A, axis=2)

    m = patterns.h + len(extra[1])
    return lp.stream(lp.chebyshev_batch(len(patterns), m, net.input_dim, _r_cap(tau_dim),
                                        build))


def region_from_bits(net, bits, extra_A=None, extra_c=None,
                     tau_lp=lp.TAU_LP, tau_dim=lp.TAU_DIM):
    """The Region of a pattern; else raises the InfeasibleSystemError or
    DegenerateSystemError `_ball_error` builds, prefixed by the bits.

    Extra rows (e.g. box bounds) are appended to the pattern's system and
    take indices h, h+1, ... in active_bits.  Every facet candidate takes
    its redundancy LP: one region has no flips to settle any."""
    (A, c, radii, found), = _blocks(net, [bits], extra_A, extra_c, tau_lp, tau_dim)
    if found:
        return found[0]
    err = _ball_error(A[0], c[0], radii[0], tau_dim)
    raise type(err)(f"pattern {bits.to01()}: {err}") from err
