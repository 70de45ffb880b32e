"""Command-line front end: weights + samples in, atlases/matrices/barcodes out.

Exit codes: 0 success, 2 usage, 3 malformed input or an unreadable or
unwritable file, 4 infeasible or degenerate geometry, 5 resource cap
exceeded.
"""

import argparse
import json
import sys

import numpy as np

from . import lp, metric, persistence, sampling
from .enumeration import (
    BoxRegion,
    H_MAX_BRUTE,
    enumerate_brute,
    enumerate_traverse,
)
from .errors import (
    BoundaryPointError,
    DegenerateSystemError,
    FormatError,
    DimensionMismatch,
    InfeasibleSystemError,
    IterationLimitError,
    NonFiniteEntry,
    ReluhomError,
    ResourceCapError,
)
from .files import read_bits, read_points, write_bits, write_points
# bit_vector stays a cli name: perfbench's tracer test looks it up here
from .network import TAU_BIT, bit_vector, bit_vectors, load_network  # noqa: F401
from .regions import region_of

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_GEOMETRY = 4
EXIT_RESOURCE = 5


def _vector(text):
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"not a comma-separated vector: {text!r}") from exc


def _box(args):
    if args.lower is None and args.upper is None:
        return None
    if args.lower is None or args.upper is None:
        raise FormatError("--lower and --upper must be given together")
    return BoxRegion(_vector(args.lower), _vector(args.upper))


def cmd_bits(args):
    net = load_network(args.net)
    write_bits(bit_vectors(net, read_points(args.points), args.tau_bit), args.out)
    return EXIT_OK


def cmd_enumerate(args):
    net = load_network(args.net)
    box = _box(args)
    if args.mode == "brute":
        if args.h_max > H_MAX_BRUTE:
            print(
                f"warning: brute-force guard raised to {args.h_max} "
                f"(2^h candidates)", file=sys.stderr,
            )
        atlas = enumerate_brute(
            net, box=box, h_max=args.h_max,
            tau_lp=args.tau_lp, tau_dim=args.tau_dim,
        )
    else:
        rng = np.random.default_rng(args.seed)
        seed_pt = (
            rng.uniform(box.lower, box.upper)
            if box is not None
            else rng.standard_normal(net.input_dim)
        )
        atlas = enumerate_traverse(
            net, seed_pt, box=box, rng=rng,
            tau_lp=args.tau_lp, tau_dim=args.tau_dim,
        )
    order = sorted(atlas.regions, key=lambda b: b.to01())
    with open(args.out_regions, "w") as fh:
        for bits in order:
            region = atlas.regions[bits]
            fh.write(json.dumps({
                "bits": bits.to01(),
                "active_bits": list(region.active_bits),
                "boundary_flag": atlas.boundary_flags[bits],
            }))
            fh.write("\n")
    if args.out_edges:
        edges = sorted(
            (tuple(sorted((u.to01(), v.to01()))) for u, v in map(tuple, atlas.edges))
        )
        with open(args.out_edges, "w") as fh:
            for u, v in edges:
                fh.write(f"{u} {v}\n")
    print(f"{len(atlas.regions)} regions, {len(atlas.edges)} edges")
    return EXIT_OK


def cmd_region(args):
    net = load_network(args.net)
    region = region_of(
        net, _vector(args.point),
        tau_bit=args.tau_bit, tau_lp=args.tau_lp, tau_dim=args.tau_dim,
    )
    text = region.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_distmat(args):
    vectors = read_bits(args.bits)
    d = metric.hamming_matrix(vectors, deduplicate=args.dedup)
    persistence.export_lower_distance(d, args.out)
    return EXIT_OK


def cmd_combine(args):
    da = persistence.read_lower_distance(args.a)
    db = persistence.read_lower_distance(args.b)
    persistence.export_lower_distance(metric.combine(da, db, args.op), args.out)
    return EXIT_OK


def cmd_persist(args):
    d = persistence.read_lower_distance(args.matrix)
    filtration = persistence.build_filtration(
        d, max_dim=args.max_dim, t_max=args.t_max, simplex_cap=args.simplex_cap
    )
    barcode = persistence.compute_barcodes(filtration)
    obj = barcode.to_json_obj(include_zero_length=args.include_zero_bars)
    text = json.dumps(obj)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.table:
        for entry in obj:
            for birth, death in entry["bars"]:
                death_txt = "inf" if death is None else f"{death:g}"
                print(f"H{entry['dim']}  [{birth:g}, {death_txt})")
    return EXIT_OK


def cmd_export_ldm(args):
    pts = np.asarray(read_points(args.points))
    # one row at a time: memory is the n x n output, not an (n, n, m) difference
    d = np.empty((pts.shape[0], pts.shape[0]))
    for i, p in enumerate(pts):
        d[i] = np.sqrt(((pts - p) ** 2).sum(axis=1))
    persistence.export_lower_distance(metric.DistanceMatrix(d), args.out)
    return EXIT_OK


def _anchor_family(args, need):
    anchors = read_points(args.anchors)
    if len(anchors) < need:
        raise FormatError(f"anchor file must hold at least {need} vectors")
    return sampling.AnchorFamily(
        tuple(anchors), offset_index=args.offset_index
    )


def cmd_sample_circle(args):
    family = _anchor_family(args, 2)
    pts = sampling.circle_samples(
        family, args.count, theta_range=(args.theta0, args.theta1)
    )
    write_points(pts, args.out)
    return EXIT_OK


def cmd_sample_torus(args):
    family = _anchor_family(args, 4)
    pts = sampling.torus_samples(
        family, args.n1, args.n2, alpha=args.alpha,
        mode=args.mode, rng=np.random.default_rng(args.seed),
    )
    write_points(pts, args.out)
    return EXIT_OK


def cmd_gen_anchors(args):
    anchors = sampling.random_orthogonal_anchors(args.dim, args.count, args.seed)
    write_points(anchors, args.out)
    return EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(
        prog="reluhom",
        description="ReLU polyhedral decompositions and activation-pattern persistence",
    )
    sub = top.add_subparsers(dest="command", required=True)

    defaults = {"--tau-lp": lp.TAU_LP, "--tau-dim": lp.TAU_DIM, "--tau-bit": TAU_BIT}

    def tolerances(p, *flags):
        """Register the tolerance flags a subcommand honours."""
        for flag in flags:
            p.add_argument(flag, type=float, default=defaults[flag])

    p = sub.add_parser("bits", help="activation bit vectors of sample points")
    p.add_argument("--net", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out", required=True)
    tolerances(p, "--tau-bit")
    p.set_defaults(func=cmd_bits)

    p = sub.add_parser("enumerate", help="enumerate all regions (brute or traverse)")
    p.add_argument("--net", required=True)
    p.add_argument("--mode", choices=("brute", "traverse"), default="traverse")
    p.add_argument("--lower", help="comma-separated box lower bounds")
    p.add_argument("--upper", help="comma-separated box upper bounds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h-max", type=int, default=H_MAX_BRUTE)
    p.add_argument("--out-regions", required=True)
    p.add_argument("--out-edges")
    tolerances(p, "--tau-lp", "--tau-dim")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("region", help="region of a single point")
    p.add_argument("--net", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--out")
    tolerances(p, "--tau-lp", "--tau-dim", "--tau-bit")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("distmat", help="Hamming matrix from a bit-vector file")
    p.add_argument("--bits", required=True)
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distmat)

    p = sub.add_parser("combine", help="entrywise min/max of two matrices")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--op", choices=("min", "max"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("persist", help="barcodes of a lower-distance CSV")
    p.add_argument("--matrix", required=True)
    p.add_argument("--max-dim", type=int, default=1)
    p.add_argument("--t-max", type=float)
    p.add_argument("--simplex-cap", type=int, default=persistence.SIMPLEX_CAP)
    p.add_argument("--include-zero-bars", action="store_true")
    p.add_argument("--table", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_persist)

    p = sub.add_parser("export-ldm", help="Euclidean lower-distance CSV of points")
    p.add_argument("--points", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_ldm)

    p = sub.add_parser("sample-circle", help="circle samples in anchor coordinates")
    p.add_argument("--anchors", required=True)
    p.add_argument("--offset-index", type=int)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--theta1", type=float, default=2.0 * np.pi)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_circle)

    p = sub.add_parser("sample-torus", help="torus samples in anchor coordinates")
    p.add_argument("--anchors", required=True)
    p.add_argument("--offset-index", type=int)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--mode", choices=("grid", "uniform"), default="grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_torus)

    p = sub.add_parser("gen-anchors", help="seeded orthonormal anchor vectors")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_anchors)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, NonFiniteEntry, DimensionMismatch, OSError) as exc:
        # OSError: an output file that cannot be written; its text names the path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (InfeasibleSystemError, DegenerateSystemError, BoundaryPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (ResourceCapError, IterationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ReluhomError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
