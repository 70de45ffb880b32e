import json
import tracemalloc

import numpy as np
import pytest

from reluhom import cli, network, persistence
from conftest import random_net
from oracles import ldm_text, point_bits


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

    def test_tau_lp_decides_near_redundant_rows(self, tmp_path, capsys):
        # one hidden layer z = W x + b, all bits 0 at (0.5, 0.5): the region
        # is W x <= -b, the unit square with its corner cut by x + y <= 1.9
        W1 = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        b1 = -np.array([1.0, 1.0, 0.0, 0.0, 1.9])
        net = network.NetworkSpec((W1, np.ones((1, 5))), (b1, np.zeros(1)), 2)
        netp = tmp_path / "net.json"
        network.save_network(net, netp)
        active = {}
        for tau in ("1e-8", "0.2"):
            rc = cli.main(["region", "--net", str(netp), "--point", "0.5,0.5",
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

        from reluhom import metric

        vs = [network.bit_vector(net, p) for p in pts]
        dm = metric.hamming_matrix(vs, deduplicate=True)
        f = persistence.build_filtration(dm.data, max_dim=1)
        want = persistence.compute_barcodes(f).to_json_obj()
        assert json.loads(barp.read_text()) == want

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

    def test_sample_circle_count(self, tmp_path):
        ap, cp = tmp_path / "a.json", tmp_path / "c.json"
        assert cli.main(["gen-anchors", "--dim", "3", "--count", "2", "--seed", "1", "--out", str(ap)]) == 0
        assert cli.main(["sample-circle", "--anchors", str(ap), "--count", "20", "--out", str(cp)]) == 0
        pts = np.array(json.loads(cp.read_text())["points"])
        assert pts.shape == (20, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


class TestInputErrors:
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

    def test_nan_t_max_exits_3(self, tmp_path, capsys):
        p = tmp_path / "m.ldm"
        p.write_text("1\n")
        assert cli.main(["persist", "--matrix", str(p), "--t-max", "nan"]) == 3
        assert "t_max is NaN" in capsys.readouterr().err

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


class TestUsage:
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
