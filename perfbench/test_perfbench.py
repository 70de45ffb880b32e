"""Checks of the benchmark's own machinery.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import reluhom.cli  # noqa: E402
import reluhom.network  # noqa: E402
from oracles import naive_barcodes  # noqa: E402
from reluhom import enumeration, persistence  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, reduction_counts  # noqa: E402


def instrumented_reduction(D, max_dim, t_max):
    """Column reduction with clearing on the global simplex order.

    Returns {dim: (pivots, cleared, zero columns)}, counted column by column.
    """
    n = D.shape[0]
    simplices = []
    for k in range(1, max_dim + 3):
        for vs in combinations(range(n), k):
            diam = max((D[i][j] for i, j in combinations(vs, 2)), default=0.0)
            if diam <= t_max:
                simplices.append((diam, k - 1, vs))
    simplices.sort()
    index = {vs: i for i, (_, _, vs) in enumerate(simplices)}
    low_of = {}
    cleared = set()
    counts = {d: [0, 0, 0] for d in range(1, max_dim + 2)}
    # top dimension first, so clearing can skip columns known to be cycles
    for dim in range(max_dim + 1, 0, -1):
        columns = [(j, vs) for j, (_, d, vs) in enumerate(simplices) if d == dim]
        reduced = {}
        for j, vs in columns:
            if j in cleared:
                counts[dim][1] += 1
                continue
            col = {index[f] for f in combinations(vs, dim)}
            while col and max(col) in low_of:
                col ^= reduced[low_of[max(col)]]
            if col:
                low_of[max(col)] = j
                reduced[j] = col
                cleared.add(max(col))
                counts[dim][0] += 1
            else:
                counts[dim][2] += 1
    return {d: tuple(c) for d, c in counts.items()}


@pytest.mark.parametrize("seed", range(8))
def test_reduction_counts_match_a_column_by_column_count(seed):
    rng = np.random.default_rng(seed)
    n = 9
    vals = np.triu(rng.integers(1, 6, size=(n, n)).astype(float), 1)
    D = vals + vals.T
    max_dim, t_max = 2, 3.0
    f = persistence.build_filtration(D, max_dim=max_dim, t_max=t_max)
    barcode = persistence.compute_barcodes(f)
    sizes = [verts.shape[0] for verts, _ in f.blocks]
    want = instrumented_reduction(D, max_dim, t_max)
    assert reduction_counts(sizes, barcode.pairs) == want

    oracle = naive_barcodes(D, max_dim, t_max)
    oracle_pairs = [oracle[d] for d in range(max_dim + 1)]
    assert reduction_counts(sizes, oracle_pairs) == want
    # a zero column below the top dimension is an essential class
    for d in range(1, max_dim + 1):
        essential = sum(1 for _, death in oracle[d] if math.isinf(death))
        assert want[d][2] == essential


def test_spans_are_named_by_defining_module_at_every_lookup():
    net = workloads.network_spec(workloads.random_net(2, [3], 0))
    original = reluhom.network.bit_vector
    with Tracer() as tracer:
        assert reluhom.cli.bit_vector is reluhom.network.bit_vector
        assert reluhom.network.bit_vector is not original
        reluhom.cli.bit_vector(net, np.ones(2))
        reluhom.network.bit_vector(net, np.ones(2))
    assert reluhom.network.bit_vector is original
    assert reluhom.cli.bit_vector is original
    assert tracer.calls["network.bit_vector"] == 2
    assert tracer.calls["network.preactivations"] == 2


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    inner_w = tracer._wrap(inner, "x.inner")
    outer_w = tracer._wrap(lambda: inner_w() + inner_w(), "x.outer")
    outer_w()
    assert tracer.calls == {"x.inner": 2, "x.outer": 1}
    assert tracer.self_s["x.outer"] + tracer.self_s["x.inner"] == pytest.approx(
        tracer.total_s["x.outer"], rel=1e-9
    )
    assert 0 < tracer.self_s["x.outer"] < tracer.total_s["x.outer"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rotating_the_input_space_keeps_the_atlas(seed):
    layers = workloads.random_net(2, [4, 3], 5)
    base = enumeration.enumerate_traverse(workloads.network_spec(layers), np.full(2, 0.123))
    q = workloads.rotation(2, seed)
    net = workloads.network_spec(workloads.rotated_net(layers, q))
    turned = enumeration.enumerate_traverse(net, q.T @ np.full(2, 0.123))
    assert workloads.atlas_digest(turned) == workloads.atlas_digest(base)


def test_atlas_net_is_the_test_suite_net():
    from conftest import random_net

    ours = workloads.random_net(*workloads.ATLAS_NET)
    theirs = random_net(*workloads.ATLAS_NET)
    for (w, b), tw, tb in zip(ours, theirs.weights, theirs.biases):
        assert np.array_equal(w, tw) and np.array_equal(b, tb)


def test_yardstick_runs_no_reluhom_code():
    # the yardstick is the fixed scale of wall_norm_s and setup_s: a change
    # to the package must not move it
    code = ("import sys, yardstick; yardstick.Yardstick()(); "
            "sys.exit(any(m.startswith('reluhom') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench", timeout=60)
    assert out.returncode == 0


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "atlas-traverse",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer_names = set(Tracer().layer_metrics()) | {
        "process.cpu_s", "trace.overhead_frac"
    }
    assert {m["name"] for m in spec["per_layer"]} == layer_names
