"""The four workloads: seeded inputs, one operation each, and output checks.

The nets are drawn with numpy in the test suite's recipe; anchors and torus
points come from reluhom.sampling, as criterion 9 makes them.  The benchmark
seed only changes coordinates, not the work: it rotates the input space of
the atlas and circle nets (with the start point and the anchors rotated
alike, so every activation pattern stays the same).  Every seed
therefore does the same work, up to rounding, and must reproduce the same
atlas and barcode.  Rounding still moves the LP solver's work on the atlas
net by several per cent from one rotation to the next, so the atlas
operations cycle through ATLAS_ROTATIONS rotations drawn from the seed.
The torus input is criterion 9's fixed grid for every seed: relabelling or
rotating its points reorders the many equal-length simplices and moves the
reduction's work by a factor of two or more.

Every operation is sized to take about a second on one core, so that a run
of a few tens of seconds times many of them.
"""

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reluhom.cli
import reluhom.enumeration
import reluhom.persistence
import reluhom.sampling
from reluhom.network import NetworkSpec

ATLAS_NET = (3, [5, 5], 7)          # random_net arguments: m, hidden widths, seed
ATLAS_ROTATIONS = 4                  # rotations of the atlas input space per seed
# sha256 of the sorted region and edge bit strings of ATLAS_NET's atlas:
# 132 regions, 331 edges
ATLAS_DIGEST = "2271afb9d9d38e5088489f581356bdd601d3cc4eb2cf0b559fb9edb872933d35"
TORUS_GRID = 10                      # points per circle of the criterion-9 torus
TORUS_T_MAX = 1.7                    # below the 1.732 distance: 16,700 tetrahedra
# sha256 of the torus barcode's JSON, zero-length bars included
TORUS_DIGEST = "b6e7dc21c24fbcd020eeddd0232d2f6d7c798e296cf1b76ba8f8443acf819126"
CIRCLE_WIDTH = 256                   # the circle net is random_net(16, [W, W], 3)
CIRCLE_COUNT = 2000
# sha256 of the `persist` output of the circle pipeline
CIRCLE_DIGEST = "5b1c1f2919925a01230362cbf34093c5da053e00aca9e9132e7d80634880f6d6"


class CheckFailed(Exception):
    """An operation returned a wrong result."""


@dataclass(frozen=True)
class Workload:
    name: str
    seed_note: str
    setup: Callable      # (seed, workdir) -> inputs
    run: Callable        # (inputs, opdir) -> output; opdir is fresh per operation
    check: Callable      # (inputs, output) -> None, raises CheckFailed


# -- seeded input generation --------------------------------------------------

def random_net(m, hidden, seed, out_dim=1):
    """Gaussian weights and biases per layer, drawn in the test suite's order."""
    rng = np.random.default_rng(seed)
    sizes = [m] + list(hidden) + [out_dim]
    return [
        (rng.standard_normal((b, a)), rng.standard_normal(b))
        for a, b in zip(sizes, sizes[1:])
    ]


def rotation(dim, seed):
    """Uniformly random orthogonal matrix, deterministic per seed."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def rotated_net(layers, q):
    """The net composed with x -> q x, so it sees q^T-rotated inputs alike."""
    (w, b), rest = layers[0], layers[1:]
    return [(w @ q, b)] + rest


def network_spec(layers):
    return NetworkSpec(
        tuple(w for w, _ in layers), tuple(b for _, b in layers), layers[0][0].shape[1]
    )


# -- atlas workloads -----------------------------------------------------------

def setup_atlas(seed, workdir):
    cases = []
    for k in range(ATLAS_ROTATIONS):
        q = rotation(3, (seed, k))
        net = network_spec(rotated_net(random_net(*ATLAS_NET), q))
        cases.append((net, q.T @ np.full(3, 0.123)))
    return {"cases": itertools.cycle(cases)}


def run_traverse(inputs, opdir):
    net, start = next(inputs["cases"])
    return reluhom.enumeration.enumerate_traverse(net, start)


def run_brute(inputs, opdir):
    net, _ = next(inputs["cases"])
    return reluhom.enumeration.enumerate_brute(net)


def bit_distance(u, v):
    return sum(int(a ^ b).bit_count() for a, b in zip(u.words.tolist(), v.words.tolist()))


def atlas_digest(atlas):
    lines = sorted(bits.to01() for bits in atlas.regions)
    lines += sorted(" ".join(sorted(b.to01() for b in edge)) for edge in atlas.edges)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_atlas(inputs, atlas):
    try:
        _, edges, _ = reluhom.enumeration.dual_graph(atlas)
    except AssertionError as exc:
        raise CheckFailed(f"dual graph not certified: {exc}") from exc
    flips = [bit_distance(u, v) for u, v in edges]
    if any(f != 1 for f in flips):
        raise CheckFailed("an atlas edge is not a one-bit flip")
    digest = atlas_digest(atlas)
    if digest != ATLAS_DIGEST:
        raise CheckFailed(
            f"atlas of {len(atlas.regions)} regions, {len(atlas.edges)} edges "
            f"has digest {digest}, expected {ATLAS_DIGEST}"
        )


# -- torus ---------------------------------------------------------------------

def setup_torus(seed, workdir):
    anchors = reluhom.sampling.random_orthogonal_anchors(12, 5, seed=42)
    family = reluhom.sampling.AnchorFamily(anchors)
    pts = np.stack(
        reluhom.sampling.torus_samples(family, TORUS_GRID, TORUS_GRID, alpha=1.0)
    )
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    np.fill_diagonal(d, 0.0)
    return {"distances": d}


def run_torus(inputs, opdir):
    f = reluhom.persistence.build_filtration(
        inputs["distances"], max_dim=2, t_max=TORUS_T_MAX
    )
    return reluhom.persistence.compute_barcodes(f)


def check_torus(inputs, barcode):
    """At scale TORUS_T_MAX the Rips complex is a torus: Betti numbers 1, 2, 1."""
    betti = tuple(
        sum(1 for _, death in barcode.intervals(q) if math.isinf(death)) for q in range(3)
    )
    if betti != (1, 2, 1):
        raise CheckFailed(f"essential bars per dimension {betti}, expected (1, 2, 1)")
    raw = json.dumps(barcode.to_json_obj(include_zero_length=True)).encode()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != TORUS_DIGEST:
        raise CheckFailed(f"barcode digest {digest}, expected {TORUS_DIGEST}")


# -- circle pipeline -----------------------------------------------------------

def setup_circle(seed, workdir):
    q = rotation(16, seed)
    layers = rotated_net(random_net(16, [CIRCLE_WIDTH, CIRCLE_WIDTH], 3), q)
    anchors = [q.T @ (4.0 * a)
               for a in reluhom.sampling.random_orthogonal_anchors(16, 2, seed=1)]
    paths = {"net": os.path.join(workdir, "net.json"),
             "anchors": os.path.join(workdir, "anchors.json")}
    with open(paths["net"], "w") as fh:
        json.dump({
            "input_dim": 16,
            "layers": [{"weights": w.tolist(), "bias": b.tolist()} for w, b in layers],
        }, fh)
    with open(paths["anchors"], "w") as fh:
        json.dump({"points": [a.tolist() for a in anchors]}, fh)
    return paths


def circle_stages(inputs, opdir):
    p = dict(inputs, **{
        key: os.path.join(opdir, name)
        for key, name in (("points", "points.json"), ("bits", "bits.txt"),
                          ("ldm", "dist.ldm"), ("barcode", "barcode.json"))
    })
    return p, [
        ["sample-circle", "--anchors", p["anchors"], "--count", str(CIRCLE_COUNT),
         "--out", p["points"]],
        ["bits", "--net", p["net"], "--points", p["points"], "--out", p["bits"]],
        ["distmat", "--bits", p["bits"], "--dedup", "--out", p["ldm"]],
        ["persist", "--matrix", p["ldm"], "--max-dim", "1", "--t-max", "8",
         "--out", p["barcode"]],
    ]


def run_circle(inputs, opdir):
    """The four CLI stages, writing into a fresh directory per operation."""
    paths, stages = circle_stages(inputs, opdir)
    codes = []
    for argv in stages:
        codes.append(reluhom.cli.main(argv))
        if codes[-1] != 0:
            break
    return dict(paths, codes=codes, stages=len(stages))


def check_circle(inputs, out):
    codes = out["codes"]
    if len(codes) != out["stages"] or any(code != 0 for code in codes):
        raise CheckFailed(f"stage exit codes {codes}")
    with open(out["barcode"], "rb") as fh:
        raw = fh.read()
    essential = {
        entry["dim"]: sum(1 for _, death in entry["bars"] if death is None)
        for entry in json.loads(raw)
    }
    if essential.get(0) != 1 or essential.get(1) != 1:
        raise CheckFailed(f"essential bars per dimension {essential}, expected one H0 and one H1")
    digest = hashlib.sha256(raw).hexdigest()
    if digest != CIRCLE_DIGEST:
        raise CheckFailed(f"barcode digest {digest}, expected {CIRCLE_DIGEST}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("atlas-traverse", "rotations of the input space", setup_atlas,
                 run_traverse, check_atlas),
        Workload("atlas-brute", "rotations of the input space", setup_atlas,
                 run_brute, check_atlas),
        Workload("torus-rips", "nothing: the criterion-9 grid is fixed", setup_torus,
                 run_torus, check_torus),
        Workload("circle-pipeline", "rotation of the input space", setup_circle,
                 run_circle, check_circle),
    )
}
