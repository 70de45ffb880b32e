import argparse
import json
import re
import shlex
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from reluhom import _kernels, cli, enumeration, metric, network, persistence
from conftest import random_net
from oracles import ldm_text, point_bits


@pytest.fixture
def cut_square_net(tmp_path):
    """One hidden layer z = W x + b whose all-zero region (around (0.5,
    0.5)) is the unit square with its corner cut by x + y <= 1.9; the cut-off
    corner is the thin triangle 00001, of inradius 0.029."""
    W1 = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b1 = -np.array([1.0, 1.0, 0.0, 0.0, 1.9])
    netp = tmp_path / "cut_square.json"
    network.save_network(network.NetworkSpec((W1, np.ones((1, 5))), (b1, np.zeros(1)), 2), netp)
    return netp


@pytest.fixture
def netfile(tmp_path):
    net = random_net(2, [3, 3], 11)
    p = tmp_path / "net.json"
    network.save_network(net, p)
    return net, p


def write_points(path, pts):
    path.write_text(json.dumps({"points": [list(map(float, p)) for p in pts]}))


class TestBits:
    def test_matches_library(self, netfile, tmp_path):
        net, netp = netfile
        pts = np.random.default_rng(1).standard_normal((10, 2))
        ptp = tmp_path / "pts.json"
        write_points(ptp, pts)
        out = tmp_path / "bits.txt"
        rc = cli.main(["bits", "--net", str(netp), "--points", str(ptp), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines == [network.bit_vector(net, p).to01() for p in pts]
        assert lines == ["".join(map(str, point_bits(net, p, network.TAU_BIT)))
                         for p in pts]

    def test_empty_points_file_gives_empty_bits_file(self, netfile, tmp_path):
        _, netp = netfile
        ptp, out = tmp_path / "pts.json", tmp_path / "bits.txt"
        write_points(ptp, [])
        rc = cli.main(["bits", "--net", str(netp), "--points", str(ptp), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == ""

    def test_wrong_length_point_exits_3(self, netfile, tmp_path, capsys):
        _, netp = netfile
        ptp = tmp_path / "pts.json"
        write_points(ptp, [[1.0, 2.0, 3.0]] * 4)
        argv = ["bits", "--net", str(netp), "--points", str(ptp),
                "--out", str(tmp_path / "bits.txt")]
        assert cli.main(argv) == 3
        assert "network expects (2," in capsys.readouterr().err


class TestEnumerate:
    def test_modes_agree_and_are_sorted(self, netfile, tmp_path):
        net, netp = netfile
        outs = {}
        for mode in ("brute", "traverse"):
            rp = tmp_path / f"{mode}.jsonl"
            ep = tmp_path / f"{mode}.edges"
            rc = cli.main([
                "enumerate", "--net", str(netp), "--mode", mode,
                "--out-regions", str(rp), "--out-edges", str(ep),
            ])
            assert rc == 0
            outs[mode] = (rp.read_text(), ep.read_text())
        assert outs["brute"] == outs["traverse"]
        bits = [json.loads(l)["bits"] for l in outs["brute"][0].splitlines()]
        assert bits == sorted(bits)

    def test_lower_without_upper_exits_3(self, netfile, tmp_path, capsys):
        _, netp = netfile
        out = tmp_path / "r.txt"
        argv = ["enumerate", "--net", str(netp), "--lower=-1,-1", "--out-regions", str(out)]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == "error: --lower and --upper must be given together\n"
        assert not out.exists()

    def test_box_flags_present(self, netfile, tmp_path):
        _, netp = netfile
        rp = tmp_path / "r.jsonl"
        rc = cli.main([
            "enumerate", "--net", str(netp), "--mode", "brute",
            "--lower=-2,-2", "--upper=2,2", "--out-regions", str(rp),
        ])
        assert rc == 0
        recs = [json.loads(l) for l in rp.read_text().splitlines()]
        assert any(r["boundary_flag"] for r in recs)
        assert all(set(r) == {"bits", "active_bits", "boundary_flag"} for r in recs)

    @pytest.mark.parametrize("mode", ["brute", "traverse"])
    def test_tolerances_reach_every_region(self, cut_square_net, tmp_path, mode):
        def regions(*tolerances):
            rp = tmp_path / "r.jsonl"
            rc = cli.main(["enumerate", "--net", str(cut_square_net), "--mode", mode,
                           "--out-regions", str(rp), *tolerances])
            assert rc == 0
            return {rec["bits"]: rec["active_bits"]
                    for rec in map(json.loads, rp.read_text().splitlines())}

        # the cut row is 0.1 inside the square's corner: a facet for tau_lp < 0.1
        assert regions("--tau-lp", "1e-8")["00000"] == [0, 1, 2, 3, 4]
        assert regions("--tau-lp", "0.2")["00000"] == [0, 1, 2, 3]
        default, coarse = regions(), regions("--tau-dim", "0.05")
        assert "00001" in default
        assert set(default) - set(coarse) == {"00001"}

    def test_raised_guard_warns_with_the_prefix_bound(self, netfile, tmp_path, capsys):
        _, netp = netfile
        argv = ["enumerate", "--net", str(netp), "--mode", "brute",
                "--out-regions", str(tmp_path / "r.jsonl")]
        assert cli.main(argv + ["--h-max", "24"]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main(argv + ["--h-max", "25"]) == 0
        assert capsys.readouterr().err == (
            "warning: brute-force guard raised to h = 25 (each of the prefix search's "
            "at most h rounds tests at most 2 prefix nodes per region it finds or one "
            "stack of 585 LPs, whichever is more, plus the root)\n"
        )
        assert enumeration.prefix_stack(netfile[0]) == 585

    def test_resource_cap_exit_code(self, tmp_path):
        net = random_net(2, [30], 1)
        netp = tmp_path / "big.json"
        network.save_network(net, netp)
        rc = cli.main([
            "enumerate", "--net", str(netp), "--mode", "brute",
            "--out-regions", str(tmp_path / "r.jsonl"),
        ])
        assert rc == 5


class TestRegion:
    def test_json_fields(self, netfile, tmp_path, capsys):
        _, netp = netfile
        rc = cli.main(["region", "--net", str(netp), "--point", "0.3,-0.7"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert {"bits", "active_bits", "essential_rows", "affine", "interior_point"} <= set(rec)
        assert len(rec["essential_rows"]) == len(rec["active_bits"])

    def test_out_file_is_the_printed_text(self, netfile, tmp_path, capsys):
        _, netp = netfile
        argv = ["region", "--net", str(netp), "--point", "0.3,-0.7"]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "region.json"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_point_that_is_not_a_vector_exits_3(self, netfile, capsys):
        _, netp = netfile
        assert cli.main(["region", "--net", str(netp), "--point", "0.1,x"]) == 3
        assert capsys.readouterr().err == "error: not a comma-separated vector: '0.1,x'\n"

    def test_tau_lp_decides_near_redundant_rows(self, cut_square_net, capsys):
        active = {}
        for tau in ("1e-8", "0.2"):
            rc = cli.main(["region", "--net", str(cut_square_net), "--point", "0.5,0.5",
                           "--tau-lp", tau])
            assert rc == 0
            rec = json.loads(capsys.readouterr().out)
            assert rec["bits"] == "00000"
            active[tau] = rec["active_bits"]
        assert active == {"1e-8": [0, 1, 2, 3, 4], "0.2": [0, 1, 2, 3]}

    def test_boundary_point_exit_code(self, tmp_path):
        net = network.NetworkSpec(
            weights=[np.array([[1.0, 0.0]]), np.array([[1.0]])],
            biases=[np.zeros(1), np.zeros(1)],
            input_dim=2,
        )
        netp = tmp_path / "net.json"
        network.save_network(net, netp)
        rc = cli.main(["region", "--net", str(netp), "--point", "0,1"])
        assert rc == 4

    @pytest.mark.parametrize("args", [
        ["region", "--point", "0"],
        ["enumerate", "--mode", "traverse"],
        ["enumerate", "--mode", "traverse", "--lower=-3", "--upper=3"],
    ])
    def test_slab_geometry_error_names_the_pattern(self, tmp_path, capsys, args):
        # the slab -1 < x < 1 has Chebyshev radius 1: at --tau-dim 2 the
        # point's region and traversal's seed region fail with one message
        net = network.NetworkSpec(
            weights=[np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
            biases=[np.ones(2), np.zeros(1)],
            input_dim=1,
        )
        netp, out = tmp_path / "slab.json", tmp_path / "r.txt"
        network.save_network(net, netp)
        if args[0] == "enumerate":
            args = args + ["--out-regions", str(out)]
        rc = cli.main(args + ["--net", str(netp), "--tau-dim", "2"])
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == "" and not out.exists()
        assert captured.err == (
            "error: pattern 11: region is not full-dimensional: Chebyshev radius 1 <= tau_dim 2\n"
        )

    def test_malformed_net_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = cli.main(["region", "--net", str(p), "--point", "0,1"])
        assert rc == 3


class TestPipeline:
    def test_bits_to_barcode_roundtrip(self, netfile, tmp_path):
        """bits -> distmat -> persist reproduces the library answer."""
        net, netp = netfile
        pts = np.random.default_rng(5).standard_normal((30, 2)) * 2
        ptp = tmp_path / "pts.json"
        write_points(ptp, pts)
        bitsp, matp, barp = (tmp_path / n for n in ("b.txt", "m.ldm", "bc.json"))
        assert cli.main(["bits", "--net", str(netp), "--points", str(ptp), "--out", str(bitsp)]) == 0
        assert cli.main(["distmat", "--bits", str(bitsp), "--dedup", "--out", str(matp)]) == 0
        assert cli.main([
            "persist", "--matrix", str(matp), "--max-dim", "1", "--out", str(barp),
        ]) == 0

        vs = [network.bit_vector(net, p) for p in pts]
        dm = metric.hamming_matrix(vs, deduplicate=True)
        f = persistence.build_filtration(dm.data, max_dim=1)
        want = persistence.compute_barcodes(f).to_json_obj()
        assert json.loads(barp.read_text()) == want

    def test_bits_and_distmat_make_no_bit_vector(self, netfile, tmp_path, monkeypatch):
        """Patterns go from the net to the file and from the file to the
        Hamming kernel as one packed array: no BitVector is made."""
        net, netp = netfile
        pts = np.random.default_rng(6).standard_normal((300, 2)) * 2
        want = metric.hamming_matrix([network.bit_vector(net, p) for p in pts],
                                     deduplicate=True).data
        ptp, bitsp, matp = (tmp_path / n for n in ("pts.json", "b.txt", "m.ldm"))
        write_points(ptp, pts)

        def refuse(self, n, value):
            raise AssertionError("a BitVector was made")

        monkeypatch.setattr(network.BitVector, "__init__", refuse)
        with pytest.raises(AssertionError):
            network.BitVector(1, 0)
        assert cli.main(["bits", "--net", str(netp), "--points", str(ptp),
                         "--out", str(bitsp)]) == 0
        assert cli.main(["distmat", "--bits", str(bitsp), "--dedup", "--out", str(matp)]) == 0
        monkeypatch.undo()
        assert np.array_equal(persistence.read_lower_distance(matp).data, want)

    def test_combine(self, tmp_path):
        a = np.array([[0.0, 3.0], [3.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        pa, pb, po = (tmp_path / n for n in ("a.ldm", "b.ldm", "o.ldm"))
        persistence.export_lower_distance(a, pa)
        persistence.export_lower_distance(b, pb)
        rc = cli.main(["combine", "--a", str(pa), "--b", str(pb), "--op", "min", "--out", str(po)])
        assert rc == 0
        assert persistence.read_lower_distance(po).data[0, 1] == 1.0

    def test_combine_with_infinite_entry(self, tmp_path):
        a = np.array([[0.0, np.inf, 2.0], [np.inf, 0.0, 1.0], [2.0, 1.0, 0.0]])
        b = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        pa, pb, po = (tmp_path / n for n in ("a.ldm", "b.ldm", "o.ldm"))
        persistence.export_lower_distance(a, pa)
        persistence.export_lower_distance(b, pb)
        rc = cli.main(["combine", "--a", str(pa), "--b", str(pb), "--op", "max", "--out", str(po)])
        assert rc == 0
        assert np.array_equal(persistence.read_lower_distance(po).data, np.maximum(a, b))

    def test_export_ldm(self, tmp_path):
        pts = [[0.0, 0.0], [3.0, 4.0]]
        pp, op = tmp_path / "p.json", tmp_path / "m.ldm"
        write_points(pp, pts)
        assert cli.main(["export-ldm", "--points", str(pp), "--out", str(op)]) == 0
        assert op.read_text().strip() == "5"

    def test_export_ldm_of_no_points_exits_3(self, tmp_path, capsys):
        pp, op = tmp_path / "p.json", tmp_path / "m.ldm"
        write_points(pp, [])
        assert cli.main(["export-ldm", "--points", str(pp), "--out", str(op)]) == 3
        assert capsys.readouterr().err == f"error: no points in {pp}\n"
        assert not op.exists()

    def test_export_ldm_is_the_pairwise_difference_formula(self, tmp_path):
        rng = np.random.default_rng(17)
        for scale in (1.0, 10.0, 1e2, 1e3, 1e4):
            pts = rng.standard_normal((60, 16)) * scale
            pp, op = tmp_path / "p.json", tmp_path / "m.ldm"
            write_points(pp, pts)
            assert cli.main(["export-ldm", "--points", str(pp), "--out", str(op)]) == 0
            diff = pts[:, None, :] - pts[None, :, :]
            assert op.read_text() == ldm_text(np.sqrt((diff ** 2).sum(axis=2)))

    def test_export_ldm_memory_is_the_matrix(self, tmp_path, monkeypatch):
        """No (n, n, m) difference: the peak is a small multiple of n^2 doubles."""
        n, m = 400, 16
        pp = tmp_path / "p.json"
        write_points(pp, np.random.default_rng(3).standard_normal((n, m)))
        kept = []
        monkeypatch.setattr(persistence, "export_lower_distance",
                            lambda d, sink: kept.append(d))
        tracemalloc.start()
        try:
            rc = cli.main(["export-ldm", "--points", str(pp), "--out", "unused"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0 and kept[0].size == n
        assert peak < 3 * n * n * 8, f"peak {peak} bytes"

    @pytest.mark.parametrize("budget", [1, 4096, 1 << 30])
    def test_block_budget_changes_no_byte(self, tmp_path, monkeypatch, budget):
        """Every file of the circle pipeline, from one item per block to one
        block of all, is the file made at the default budget."""
        net = random_net(16, [64, 64], 5)
        network.save_network(net, tmp_path / "net.json")

        def pipeline(out):
            out.mkdir()
            stages = [
                ["gen-anchors", "--dim", "16", "--count", "2", "--seed", "3",
                 "--out", out / "anchors.json"],
                ["sample-circle", "--anchors", out / "anchors.json", "--count", "300",
                 "--out", out / "points.json"],
                ["bits", "--net", tmp_path / "net.json", "--points", out / "points.json",
                 "--out", out / "bits.txt"],
                ["distmat", "--bits", out / "bits.txt", "--dedup", "--out", out / "dist.ldm"],
                ["persist", "--matrix", out / "dist.ldm", "--max-dim", "1", "--t-max", "8",
                 "--out", out / "barcode.json"],
            ]
            for argv in stages:
                assert cli.main(list(map(str, argv))) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        want = pipeline(tmp_path / "default")
        n = want["dist.ldm"].count(b"\n") + 1
        assert n - 1 > _kernels.per_block(8 * n)    # LDM rows cross a block's end
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", budget)
        assert pipeline(tmp_path / "budget") == want

    def test_persist_table_output(self, tmp_path, capsys):
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        p = tmp_path / "m.ldm"
        persistence.export_lower_distance(d, p)
        assert cli.main(["persist", "--matrix", str(p), "--table"]) == 0
        text = capsys.readouterr().out
        assert "inf" in text and "2" in text


class TestSamplers:
    def test_gen_anchors_then_torus(self, tmp_path):
        ap, tp = tmp_path / "anchors.json", tmp_path / "torus.json"
        assert cli.main(["gen-anchors", "--dim", "8", "--count", "5", "--seed", "7", "--out", str(ap)]) == 0
        anchors = np.array(json.loads(ap.read_text())["points"])
        assert anchors.shape == (5, 8)
        assert np.allclose(anchors @ anchors.T, np.eye(5), atol=1e-10)
        assert cli.main([
            "sample-torus", "--anchors", str(ap), "--n1", "4", "--n2", "4",
            "--alpha", "1.5", "--out", str(tp),
        ]) == 0
        pts = np.array(json.loads(tp.read_text())["points"])
        assert pts.shape == (16, 8)
        assert np.allclose(np.linalg.norm(pts - anchors[4], axis=1), 1.5 * np.sqrt(2))

    @pytest.mark.parametrize("argv", [
        ["sample-torus", "--n1", "0", "--n2", "4"],
        ["sample-torus", "--n1", "4", "--n2", "-3"],
        ["sample-torus", "--mode", "uniform", "--n1", "-3", "--n2", "4"],
        ["sample-torus", "--mode", "uniform", "--n1", "-3", "--n2", "-3"],
    ], ids=["grid-n1-0", "grid-n2-neg", "uniform-n1-neg", "uniform-both-neg"])
    def test_non_positive_torus_counts_exit_3(self, tmp_path, capsys, argv):
        ap, tp = tmp_path / "anchors.json", tmp_path / "torus.json"
        assert cli.main(["gen-anchors", "--dim", "8", "--count", "5", "--out", str(ap)]) == 0
        assert cli.main(argv + ["--anchors", str(ap), "--out", str(tp)]) == 3
        assert capsys.readouterr().err.startswith("error: n1 and n2 must be >= 1")
        assert not tp.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_non_positive_anchor_count_exits_3(self, tmp_path, capsys, count):
        ap = tmp_path / "anchors.json"
        assert cli.main(["gen-anchors", "--dim", "8", "--count", count, "--out", str(ap)]) == 3
        assert capsys.readouterr().err.startswith("error: count must be >= 1")
        assert not ap.exists()

    def test_sample_circle_count(self, tmp_path):
        ap, cp = tmp_path / "a.json", tmp_path / "c.json"
        assert cli.main(["gen-anchors", "--dim", "3", "--count", "2", "--seed", "1", "--out", str(ap)]) == 0
        assert cli.main(["sample-circle", "--anchors", str(ap), "--count", "20", "--out", str(cp)]) == 0
        pts = np.array(json.loads(cp.read_text())["points"])
        assert pts.shape == (20, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_one_anchor_exits_3(self, tmp_path, capsys):
        ap, out = tmp_path / "a.json", tmp_path / "c.json"
        write_points(ap, [[1.0, 0.0]])
        argv = ["sample-circle", "--anchors", str(ap), "--count", "5", "--out", str(out)]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == "error: anchor file must hold at least 2 vectors\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sample-circle", "--count", "5", "--theta1", "inf"],
        ["sample-torus", "--n1", "3", "--n2", "3", "--alpha", "nan"],
        ["sample-torus", "--n1", "3", "--n2", "3", "--alpha", "1e308"],
    ], ids=["circle-theta1-inf", "torus-alpha-nan", "torus-alpha-overflow"])
    def test_non_finite_samples_exit_3_and_are_not_written(self, tmp_path, capsys, argv):
        ap, out = tmp_path / "anchors.json", tmp_path / "samples.json"
        # the first torus point, at t1 = t2 = 0, is alpha * (2, 2)
        write_points(ap, [[1.0, 1.0]] * 4 + [[0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # a numpy RuntimeWarning fails the test
            assert cli.main(argv + ["--anchors", str(ap), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: point ") and "non-finite coordinate" in err
        assert len(err.splitlines()) == 1, err
        assert not out.exists()


class TestInputErrors:
    @pytest.mark.parametrize("text", [
        '{"input_dim": 2, "layers": 5}',
        '{"input_dim": "two", "layers": [{"weights": [[1, 0]], "bias": [0]},'
        ' {"weights": [[1]], "bias": [0]}]}',
        '{"input_dim": 2, "layers": [',
        '{"input_dim": 2.0, "layers": [{"weights": [[1, 0]], "bias": [0]},'
        ' {"weights": [[1]], "bias": [0]}]}',
    ], ids=["layers-not-a-list", "input-dim-not-a-number", "truncated",
            "input-dim-not-an-integer"])
    def test_malformed_net_exits_3_naming_the_file(self, tmp_path, capsys, text):
        netp, ptp = tmp_path / "net.json", tmp_path / "pts.json"
        netp.write_text(text)
        write_points(ptp, [[0.1, 0.2]])
        argv = ["bits", "--net", str(netp), "--points", str(ptp),
                "--out", str(tmp_path / "bits.txt")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(netp) in err

    def test_mixed_bit_lengths_exit_3_naming_the_line(self, tmp_path, capsys):
        bitsp = tmp_path / "b.txt"
        bitsp.write_text("0101\n1100\n110\n")
        rc = cli.main(["distmat", "--bits", str(bitsp), "--out", str(tmp_path / "m.ldm")])
        assert rc == 3
        assert f"{bitsp}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"\xff\xfe"], ids=["missing", "not-utf8"])
    @pytest.mark.parametrize("command", ["persist", "combine", "distmat"])
    def test_unreadable_input_exits_3_naming_the_file(
        self, tmp_path, capsys, command, content
    ):
        bad = tmp_path / "bad.in"
        if content is not None:
            bad.write_bytes(content)
        good = tmp_path / "good.ldm"
        good.write_text("1\n")
        out = str(tmp_path / "m.ldm")
        argv = {
            "persist": ["persist", "--matrix", str(bad)],
            "combine": ["combine", "--a", str(good), "--b", str(bad), "--op", "min",
                        "--out", out],
            "distmat": ["distmat", "--bits", str(bad), "--out", out],
        }[command]
        assert cli.main(argv) == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["1\nx,2\n", "1\n2\n"], ids=["entry", "row-length"])
    def test_combine_names_the_malformed_file(self, tmp_path, capsys, content):
        good, bad = tmp_path / "good.ldm", tmp_path / "bad.ldm"
        good.write_text("1\n2,3\n")
        bad.write_text(content)
        argv = ["combine", "--a", str(good), "--b", str(bad), "--op", "min",
                "--out", str(tmp_path / "m.ldm")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert f"{bad}: line 2:" in err and str(good) not in err

    @pytest.mark.parametrize(
        "command", ["distmat", "persist", "bits", "enumerate", "sample-circle"]
    )
    def test_unwritable_output_exits_3_naming_the_file(
        self, netfile, tmp_path, capsys, command
    ):
        _, netp = netfile
        out = str(tmp_path / "nodir" / "out.txt")
        bitsp, ldmp = tmp_path / "b.txt", tmp_path / "m.ldm"
        bitsp.write_text("01\n11\n")
        ldmp.write_text("1\n")
        ptp = tmp_path / "pts.json"
        write_points(ptp, [[1.0, 0.0], [0.0, 1.0]])
        argv = {
            "distmat": ["distmat", "--bits", str(bitsp), "--out", out],
            "persist": ["persist", "--matrix", str(ldmp), "--out", out],
            "bits": ["bits", "--net", str(netp), "--points", str(ptp), "--out", out],
            "enumerate": ["enumerate", "--net", str(netp), "--out-regions", out],
            "sample-circle": ["sample-circle", "--anchors", str(ptp), "--count", "4",
                              "--out", out],
        }[command]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("command", ["bits", "export-ldm"])
    def test_non_finite_point_exits_3_naming_it(
        self, netfile, tmp_path, capsys, command, bad
    ):
        _, netp = netfile
        ptp, out = tmp_path / "pts.json", tmp_path / "out.txt"
        write_points(ptp, [[0.5, 1.0], [bad, 1.0]])
        argv = {
            "bits": ["bits", "--net", str(netp), "--points", str(ptp), "--out", str(out)],
            "export-ldm": ["export-ldm", "--points", str(ptp), "--out", str(out)],
        }[command]
        assert cli.main(argv) == 3
        assert f"{ptp}: point 1 has a non-finite coordinate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bits", "export-ldm", "sample-circle"])
    def test_overflowing_coordinate_exits_3_without_output(
        self, netfile, tmp_path, capsys, command
    ):
        _, netp = netfile
        ptp, out = tmp_path / "pts.json", tmp_path / "out.txt"
        ptp.write_text(f'{{"points": [[1{"0" * 400}, 2.0], [0.0, 1.0]]}}')
        argv = {
            "bits": ["bits", "--net", str(netp), "--points", str(ptp)],
            "export-ldm": ["export-ldm", "--points", str(ptp)],
            "sample-circle": ["sample-circle", "--anchors", str(ptp), "--count", "4"],
        }[command]
        assert cli.main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read points file {ptp}: ")
        assert len(err.splitlines()) == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("point", ["nan,1", "1,inf"])
    def test_non_finite_region_point_exits_3(self, netfile, capsys, point):
        _, netp = netfile
        assert cli.main(["region", "--net", str(netp), "--point", point]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_nan_entry_exits_3_naming_the_entry(self, tmp_path, capsys):
        p = tmp_path / "m.ldm"
        p.write_text("nan\n")
        assert cli.main(["persist", "--matrix", str(p)]) == 3
        assert "(0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["1_0", "\u0661"])
    def test_entry_float_takes_but_the_format_does_not_exits_3(self, tmp_path, capsys, entry):
        # float() reads "1_0" as 10 and the Arabic-Indic one "\u0661" as 1
        p = tmp_path / "m.ldm"
        p.write_text(f"{entry}\n2,3\n", encoding="utf-8")
        assert cli.main(["persist", "--matrix", str(p)]) == 3
        assert f"error: {p}: line 1: " in capsys.readouterr().err

    def test_many_short_lines_exit_3_without_an_n_by_n_matrix(self, tmp_path, capsys):
        # 100,001 points would be an 80 GB matrix; line 2 is one entry short
        p = tmp_path / "m.ldm"
        p.write_text("1\n" * 100_000)
        tracemalloc.start()
        try:
            assert cli.main(["persist", "--matrix", str(p)]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"error: {p}: line 2: expected 2 entries, got 1" in capsys.readouterr().err
        assert peak < 8 << 20

    def test_nan_t_max_exits_3(self, tmp_path, capsys):
        p = tmp_path / "m.ldm"
        p.write_text("1\n")
        assert cli.main(["persist", "--matrix", str(p), "--t-max", "nan"]) == 3
        assert "t_max is NaN" in capsys.readouterr().err

    def test_negative_t_max_exits_3(self, tmp_path, capsys):
        p = tmp_path / "m.ldm"
        p.write_text("1\n")
        assert cli.main(["persist", "--matrix", str(p), "--t-max", "-1"]) == 3
        assert capsys.readouterr().err.startswith("error: t_max -1 is negative")

    @pytest.mark.parametrize("mode", ["brute", "traverse"])
    def test_box_of_wrong_dimension_exits_3(self, tmp_path, capsys, mode):
        netp = tmp_path / "net.json"
        network.save_network(random_net(3, [3, 3], 11), netp)
        rc = cli.main([
            "enumerate", "--net", str(netp), "--mode", mode, "--lower", "0,0",
            "--upper", "1,1", "--out-regions", str(tmp_path / "r.jsonl"),
        ])
        assert rc == 3
        assert "box has dimension 2, network input has 3" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["brute", "traverse"])
    def test_infinite_box_exits_3(self, netfile, tmp_path, capsys, mode):
        _, netp = netfile
        rc = cli.main([
            "enumerate", "--net", str(netp), "--mode", mode, "--lower=-inf,-inf",
            "--upper=inf,inf", "--out-regions", str(tmp_path / "r.jsonl"),
        ])
        assert rc == 3
        assert capsys.readouterr().err == "error: box bounds must be finite\n"


class TestUsage:
    @pytest.mark.parametrize("command,flag,value", [
        ("enumerate", "--tau-dim", "-1"),
        ("enumerate", "--tau-dim", "inf"),
        ("enumerate", "--tau-lp", "nan"),
        ("bits", "--tau-bit", "nan"),
        ("region", "--tau-bit", "-1e-3"),
        ("region", "--tau-lp", "x"),
    ])
    def test_bad_tolerance_exits_2_naming_the_flag(self, capsys, command, flag, value):
        required = {
            "enumerate": ["--out-regions", "r.jsonl"],
            "bits": ["--points", "p.json", "--out", "b.txt"],
            "region": ["--point", "0,0"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--net", "x.json", *required, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_non_positive_simplex_cap_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["persist", "--matrix", "m.ldm", "--simplex-cap", value])
        assert exc.value.code == 2
        assert "argument --simplex-cap: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen-anchors", "--dim", "3", "--count", "2", "--out", "a.json"],
        ["enumerate", "--net", "net.json", "--out-regions", "r.jsonl"],
        ["sample-torus", "--anchors", "a.json", "--n1", "3", "--n2", "3", "--out", "t.json"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("seed, message", [
        ("-1", "argument --seed: '-1' is not an integer >= 0"),
        ("abc", "argument --seed: invalid non_negative_int value: 'abc'"),
    ], ids=["negative", "not-int"])
    def test_negative_seed_exits_2(self, capsys, argv, seed, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["enumerate", "--net", "net.json", "--out-regions", "r.jsonl", "--h-max"], "--h-max"),
        (["persist", "--matrix", "m.ldm", "--max-dim"], "--max-dim"),
    ], ids=["h-max", "max-dim"])
    @pytest.mark.parametrize("value, message", [
        ("-3", "'-3' is not an integer >= 0"),
        ("x", "invalid non_negative_int value: 'x'"),
    ], ids=["negative", "not-int"])
    def test_negative_guard_or_dimension_exits_2(self, capsys, argv, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err
        assert "Traceback" not in err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bits", "--net", "x.json"])
        assert exc.value.code == 2

    def test_removed_threads_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "enumerate", "--net", "x.json", "--threads", "2",
                "--out-regions", "r.jsonl",
            ])
        assert exc.value.code == 2


def readme_commands():
    """Every `reluhom ...` command in README's sh blocks, as argument lists.

    Backslash continuations are joined and `#` comments dropped.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["reluhom"]:
                commands.append(words[1:])
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    cli.build_parser().parse_args(argv)


def test_readme_shows_every_subcommand():
    shown = {argv[0] for argv in readme_commands()}
    assert shown == {name[4:].replace("_", "-") for name in vars(cli)
                     if name.startswith("cmd_")}


def subcommand_parser(top, name):
    """The parser that `top` hands an argv starting with `name`."""
    (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def parse_exit(parser, argv, capsys):
    """The exit code and stderr of a parse that fails."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("name", [name for name, *_ in cli._subcommands()])
def test_one_subcommand_parser_has_the_full_help(name):
    full, one = cli.build_parser(), cli.build_parser(name)
    assert one.format_help() == full.format_help()
    assert (subcommand_parser(one, name).format_help()
            == subcommand_parser(full, name).format_help())


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_one_subcommand_parser_parses_as_the_full_one(argv, capsys):
    full, one = cli.build_parser(), cli.build_parser(argv[0])
    assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))
    bad = argv + ["--no-such-flag"]
    code, err = parse_exit(full, bad, capsys)
    assert code == 2 and "unrecognized arguments: --no-such-flag" in err
    assert parse_exit(one, bad, capsys) == (code, err)


def test_top_help_is_the_full_parsers(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == cli.build_parser().format_help()


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch):
    """The console script calls main() with no arguments."""
    out = tmp_path / "anchors.json"
    monkeypatch.setattr(sys, "argv", [
        "reluhom", "gen-anchors", "--dim", "3", "--count", "2", "--out", str(out)])
    assert cli.main() == 0
    assert np.array(json.loads(out.read_text())["points"]).shape == (2, 3)
    monkeypatch.setattr(sys, "argv", ["reluhom", "gen-anchors", "--dim", "3"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
