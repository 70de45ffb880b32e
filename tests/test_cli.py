import json

import numpy as np
import pytest

from reluhom import cli, network, persistence
from conftest import random_net


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

    def test_nan_entry_exits_3_naming_the_entry(self, tmp_path, capsys):
        p = tmp_path / "m.ldm"
        p.write_text("nan\n")
        assert cli.main(["persist", "--matrix", str(p)]) == 3
        assert "(0, 1)" in capsys.readouterr().err


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
