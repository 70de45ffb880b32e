"""Sample families: anchor-plane circles, torus grids, uniform box points.

Circle points are offset + sin(t) A1 + cos(t) A2 over a half-open parameter
interval, so N samples tile a closed loop with no duplicate endpoint.  The
samplers return one (count, m) float64 array, made by one broadcast
expression over the parameter columns; it evaluates each point's formula in
the per-point order, so the points are the same doubles as one expression
per point would give.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class AnchorFamily:
    """Up to five equal-length anchor vectors with an optional center."""

    anchors: tuple
    offset_index: int = None

    def __post_init__(self):
        anchors = tuple(np.asarray(a, dtype=np.float64).ravel() for a in self.anchors)
        if not anchors:
            raise DimensionMismatch("at least one anchor required")
        size = anchors[0].size
        if any(a.size != size for a in anchors):
            raise DimensionMismatch("anchors must share one flattened length")
        if self.offset_index is not None and not 0 <= self.offset_index < len(anchors):
            raise DimensionMismatch("offset_index out of range")
        object.__setattr__(self, "anchors", anchors)

    @property
    def dim(self):
        return self.anchors[0].size

    def offset(self):
        if self.offset_index is None:
            return np.zeros(self.dim)
        return self.anchors[self.offset_index]


def circle_samples(family, count, theta_range=(0.0, 2.0 * np.pi)):
    """(count, m) array of points offset + sin(t) A1 + cos(t) A2, endpoint
    excluded."""
    if len(family.anchors) < 2:
        raise DimensionMismatch("circle sampling needs two circle anchors")
    if count < 1:
        raise DimensionMismatch("count must be >= 1")
    t0, t1 = theta_range
    a1, a2 = family.anchors[0], family.anchors[1]
    off = family.offset()
    thetas = t0 + (t1 - t0) * np.arange(count) / count
    return off + np.sin(thetas)[:, None] * a1 + np.cos(thetas)[:, None] * a2


def torus_samples(family, n1, n2, alpha=1.0, mode="grid", rng=None):
    """(n1 * n2, m) array of grid (or seeded-uniform) torus points from four
    circle anchors; the grid runs t2 fastest.

    Formula: offset + alpha * (sin(t1) A1 + cos(t1) A2 + sin(t2) A3 + cos(t2) A4);
    the offset defaults to the fifth anchor.
    """
    if len(family.anchors) < 5 and family.offset_index is None:
        raise DimensionMismatch("torus sampling needs 4 circle anchors + offset")
    if len(family.anchors) < 4:
        raise DimensionMismatch("torus sampling needs four circle anchors")
    if n1 < 1 or n2 < 1:
        raise DimensionMismatch(f"n1 and n2 must be >= 1, got {n1} and {n2}")
    a1, a2, a3, a4 = family.anchors[:4]
    off = (
        family.anchors[4]
        if family.offset_index is None
        else family.anchors[family.offset_index]
    )
    if mode == "grid":
        u = np.repeat(2.0 * np.pi * np.arange(n1) / n1, n2)
        v = np.tile(2.0 * np.pi * np.arange(n2) / n2, n1)
    elif mode == "uniform":
        if rng is None:
            rng = np.random.default_rng(0)
        u, v = rng.uniform(0.0, 2.0 * np.pi, size=(n1 * n2, 2)).T
    else:
        raise DimensionMismatch(f"unknown mode {mode!r}")
    u, v = u[:, None], v[:, None]
    return off + alpha * (
        np.sin(u) * a1 + np.cos(u) * a2 + np.sin(v) * a3 + np.cos(v) * a4
    )


def random_orthogonal_anchors(dim, count, seed):
    """count pairwise-orthogonal unit vectors, deterministic per seed.

    Gram-Schmidt on seeded Gaussian draws; redraws on (improbable) rank loss.
    """
    if count < 1:
        raise DimensionMismatch("count must be >= 1")
    if count > dim:
        raise DimensionMismatch(f"cannot fit {count} orthogonal vectors in R^{dim}")
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        v = rng.standard_normal(dim)
        for u in out:
            v = v - (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            out.append(v / norm)
    return out
