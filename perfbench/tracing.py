"""Per-layer spans and counters, recorded from outside the library.

`Tracer.install()` replaces every public function of the reluhom modules
with a wrapper, at every place a caller looks it up: the defining module,
each module that imported it by name (`reluhom.cli.bit_vector` as well as
`reluhom.network.bit_vector`) and the package namespace.  All lookups of
one function share one wrapper, so a span is named after the defining
module (`network.bit_vector`) whichever name the caller used.

A span's self time is its duration minus the time its direct child spans
cover.  Spans are folded into per-name totals as they close; observers
read the arguments and results of a few calls to count work (LP outcomes,
rejected patterns, matrix sizes, simplices, reduction pairs).
"""

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

MODULES = (
    "network", "lp", "regions", "enumeration", "metric",
    "persistence", "sampling", "files", "cli",
)

CALLS = (
    "network.bit_vector", "lp.solve", "lp.is_feasible", "lp.is_redundant",
    "lp.chebyshev_center", "regions.region_from_bits",
)
SELF_TIMES = (
    "network.bit_vector", "network.preactivations", "network.load_network",
    "lp.solve", "regions.region_from_bits", "regions.essentialize",
    "regions.assemble", "metric.hamming_matrix",
    "persistence.build_filtration", "persistence.compute_barcodes",
    "persistence.export_lower_distance", "persistence.read_lower_distance",
    "files.read_points", "files.write_points", "files.write_bits",
    "files.read_bits", "sampling.circle_samples",
)
ENUMERATORS = ("enumeration.enumerate_traverse", "enumeration.enumerate_brute")
# pivots / cleared / zero columns are reported for boundary dimensions 1..3
COUNTS = (
    "lp.solve.infeasible", "lp.solve.unbounded", "regions.region_from_bits.rejected",
    "enumeration.regions", "enumeration.edges",
    "metric.hamming_matrix.vectors", "metric.hamming_matrix.words",
    "metric.hamming_matrix.bytes_computed",
    "persistence.build_filtration.bytes_computed", "persistence.ldm_bytes",
) + tuple(f"persistence.simplices.dim{d}" for d in range(4)) + tuple(
    f"persistence.{kind}.dim{d}"
    for kind in ("pivots", "cleared", "zero_columns") for d in (1, 2, 3)
)


def reduction_counts(block_sizes, barcode_pairs):
    """Per-dimension pivots, cleared and zero columns of the clearing reduction.

    `block_sizes[d]` is the number of d-simplices, `barcode_pairs[d]` the
    (birth, death) pairs of dimension d with zero-length bars included.
    A column of dimension D either has a pivot (one finite pair of
    dimension D-1), was cleared because it is the birth of a finite pair
    of dimension D, or reduced to zero.
    """
    def finite(d):
        if d >= len(barcode_pairs):
            return 0
        return sum(1 for _, death in barcode_pairs[d] if not math.isinf(death))

    out = {}
    for d in range(1, len(block_sizes)):
        pivots = finite(d - 1)
        cleared = finite(d)
        out[d] = (pivots, cleared, block_sizes[d] - pivots - cleared)
    return out


class Tracer:
    """Span totals per function name plus work counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []          # child time accumulated per open span
        self._installed = []      # (module, attribute, original)
        self._observers = {
            "lp.solve": self._see_solve,
            "regions.region_from_bits": self._see_region,
            "enumeration.enumerate_traverse": self._see_atlas,
            "enumeration.enumerate_brute": self._see_atlas,
            "metric.hamming_matrix": self._see_hamming,
            "persistence.build_filtration": self._see_filtration,
            "persistence.compute_barcodes": self._see_barcode,
            "persistence.export_lower_distance": self._see_export,
        }

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name):
        observe = self._observers.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dur = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - child
                if observe is not None:
                    observe(args, kwargs, result, exc)

        return traced

    def install(self):
        """Wrap every public reluhom function at every module-level lookup."""
        package = importlib.import_module("reluhom")
        modules = [package] + [
            importlib.import_module(f"reluhom.{m}") for m in MODULES
        ]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("reluhom.")
                    or obj.__module__.split(".")[1] not in MODULES
                ):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.split('.')[1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(obj, name)
                self._installed.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    # -- observers -----------------------------------------------------------

    def _see_solve(self, args, kwargs, result, exc):
        if result is not None:
            self.counts[f"lp.solve.{result.status}"] += 1

    def _see_region(self, args, kwargs, result, exc):
        if exc is not None:
            self.counts["regions.region_from_bits.rejected"] += 1

    def _see_atlas(self, args, kwargs, result, exc):
        if result is not None:
            self.counts["enumeration.regions"] += len(result.regions)
            self.counts["enumeration.edges"] += len(result.edges)

    def _see_hamming(self, args, kwargs, result, exc):
        if result is None:
            return
        vectors = args[0]
        k = result.size
        w = (len(vectors[0]) + 63) // 64
        self.counts["metric.hamming_matrix.inputs"] += len(vectors)
        self.counts["metric.hamming_matrix.vectors"] += k
        self.counts["metric.hamming_matrix.words"] += w
        # the (k, k, w) uint64 XOR temporary of the numpy kernel
        self.counts["metric.hamming_matrix.bytes_computed"] += k * k * w * 8

    def _see_filtration(self, args, kwargs, result, exc):
        if result is None:
            return
        sizes = [verts.shape[0] for verts, _ in result.blocks]
        for d, size in enumerate(sizes):
            self.counts[f"persistence.simplices.dim{d}"] += size
        # adj[prev_verts]: one (n_{d-1}, d, n) boolean temporary per dimension
        n = result.n_points
        self.counts["persistence.build_filtration.bytes_computed"] += sum(
            sizes[d - 1] * d * n for d in range(1, len(sizes))
        )

    def _see_barcode(self, args, kwargs, result, exc):
        if result is None:
            return
        sizes = [verts.shape[0] for verts, _ in args[0].blocks]
        for d, (piv, clr, zero) in reduction_counts(sizes, result.pairs).items():
            self.counts[f"persistence.pivots.dim{d}"] += piv
            self.counts[f"persistence.cleared.dim{d}"] += clr
            self.counts[f"persistence.zero_columns.dim{d}"] += zero

    def _see_export(self, args, kwargs, result, exc):
        sink = args[1]
        if exc is None and hasattr(sink, "tell"):
            self.counts["persistence.ldm_bytes"] += sink.tell()

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self):
        """Per-layer metric values (name -> number); absent work reads 0."""
        calls, self_s, total_s, counts = self.calls, self.self_s, self.total_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {f"{fn}.calls": calls[fn] for fn in CALLS}
        out.update({f"{fn}.self_s": self_s[fn] for fn in SELF_TIMES})
        out.update({name: counts[name] for name in COUNTS})

        regions = counts["enumeration.regions"]
        out["lp.solves_per_region"] = ratio(calls["lp.solve"], regions)
        tried = calls["regions.region_from_bits"]
        out["regions.accept_ratio"] = ratio(
            tried - counts["regions.region_from_bits.rejected"], tried
        )
        # the enumerators' time outside region_from_bits (which, on these
        # workloads, only they call): candidate lists, neighbour search, bit
        # vectors and book-keeping
        out["enumeration.self_s"] = (
            sum(total_s[fn] for fn in ENUMERATORS) - total_s["regions.region_from_bits"]
        )
        out["enumeration.ms_per_region"] = ratio(
            1000.0 * sum(total_s[fn] for fn in ENUMERATORS), regions
        )
        out["metric.dedup_ratio"] = ratio(
            counts["metric.hamming_matrix.vectors"],
            counts["metric.hamming_matrix.inputs"],
        )
        for sub in ("sample-circle", "bits", "distmat", "persist"):
            out[f"cli.{sub}.s"] = total_s[f"cli.cmd_{sub.replace('-', '_')}"]
        return out
