import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluhom import _kernels, files
from reluhom.errors import DimensionMismatch, FormatError, NonFiniteEntry
from reluhom.files import read_bits, read_points, write_bits, write_points
from reluhom.network import BitVector
from oracles import bits_text, from_bits


@st.composite
def bit_files(draw):
    """1-20 bit vectors of one common length, 1-200 bits."""
    n = draw(st.integers(1, 200))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=1, max_size=20))
    return [from_bits(r) for r in rows]


@given(bit_files())
def test_bits_file_matches_oracle_and_round_trips(vectors):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bits.txt"
        write_bits(vectors, path)
        assert path.read_text() == "".join(bits_text(v) + "\n" for v in vectors)
        assert list(read_bits(path)) == vectors


@pytest.mark.parametrize("h", [1, 7, 8, 63, 64, 65, 512])
def test_bits_written_in_blocks_match_oracle(tmp_path, h):
    per_block = _kernels.per_block(h + 1)
    rng = np.random.default_rng(h)
    path = tmp_path / "bits.txt"
    for count in (0, 1, per_block - 1, per_block, per_block + 1, 2 * per_block + 3):
        vectors = [from_bits(row) for row in rng.integers(0, 2, (count, h))]
        write_bits(vectors, path)
        assert path.read_text() == "".join(bits_text(v) + "\n" for v in vectors)


def test_bits_are_written_a_block_at_a_time(tmp_path):
    # the file is 1.0 MB; one block of lines is 128 KiB
    rng = np.random.default_rng(6)
    vectors = [from_bits(row) for row in rng.integers(0, 2, (2000, 512))]
    path = tmp_path / "bits.txt"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_bits(vectors, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == 2000 * 513 and peak < 2**20, f"peak {peak} bytes"


def test_mixed_bit_lengths_are_not_written(tmp_path):
    path = tmp_path / "bits.txt"
    with pytest.raises(DimensionMismatch, match=re.escape("mixed lengths [3, 4]")):
        write_bits([BitVector.from01("0101"), BitVector.from01("110")], path)
    assert not path.exists()


def test_read_bits_skips_blank_lines_and_surrounding_space(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("\n 0101 \n\n1100\n")
    assert [v.to01() for v in read_bits(path)] == ["0101", "1100"]


def test_bad_bits_line_is_named(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("0101\n01a1\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:2: not a 0/1 string")):
        read_bits(path)


def test_mixed_lengths_name_the_first_odd_line(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("0101\n\n1100\n110\n11\n")
    want = f"{path}:4: 3 bits, but the first line has 4"
    with pytest.raises(FormatError, match=re.escape(want)):
        read_bits(path)


@st.composite
def bits_texts(draw):
    """Up to 500 lines of one drawn length, 1-300 bits, and a block budget
    of 1 B to 4 KiB, so most files cross block boundaries; then maybe CRLF
    line ends, a blank line, spaces, a bad byte, a line one bit short, or
    no final newline.  Returns the text, the budget and whether the text is
    equal 0/1 lines, which the block reader must take."""
    budget = draw(st.integers(1, 4096))
    h = draw(st.integers(1, 300))
    count = draw(st.integers(1, 500))
    edits = draw(st.sets(st.sampled_from(
        ["crlf", "blank", "spaces", "bad byte", "short", "no final newline"]),
        max_size=2))
    if count == 1 or h == 1:
        # one short line is still a file of equal lines; a short "1" is blank
        edits.discard("short")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = ["".join(row) for row in rng.choice(["0", "1"], (count, h))]
    k = int(rng.integers(count))
    if "spaces" in edits:
        lines[k] = f" {lines[k]}\t"
    if "bad byte" in edits:
        lines[k] = lines[k][:-1] + draw(st.sampled_from(["2", "a", "\u0661", "_"]))
    if "short" in edits:
        lines[k] = lines[k][:-1]
    if "blank" in edits:
        lines.insert(k, "")
    text = "".join(line + ("\r\n" if "crlf" in edits else "\n") for line in lines)
    if "no final newline" in edits:
        text = text[:-1]
    return text, budget, not edits


@settings(max_examples=60, deadline=None)
@given(bits_texts())
def test_read_bits_agrees_with_per_line_from01(case):
    text, budget, plain = case
    want, error = [], None
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        try:
            v = BitVector.from01(line)
        except FormatError:
            error = lineno
            break
        if want and len(v) != len(want[0]):
            error = lineno
            break
        want.append(v)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "BLOCK_BYTES", budget)
        path = Path(tmp) / "bits.txt"
        path.write_bytes(text.encode())
        with open(path, "rb") as fh:
            assert (files._read_bit_blocks(fh) is not None) == plain
        if error is None:
            assert list(read_bits(path)) == want
        else:
            with pytest.raises(FormatError, match=re.escape(f"{path}:{error}: ")):
                read_bits(path)


def test_bits_are_read_a_block_at_a_time(tmp_path):
    # the file is 1.0 MB; its 2,000 vectors hold about 0.36 MiB
    rng = np.random.default_rng(5)
    vectors = [from_bits(row) for row in rng.integers(0, 2, (2000, 512))]
    path = tmp_path / "bits.txt"
    write_bits(vectors, path)
    del vectors
    tracemalloc.start()
    try:
        back = read_bits(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back) == 2000 and peak < 2**20, f"peak {peak} bytes"


def test_points_text_is_the_json_dump_text(tmp_path):
    pts = [np.array([0.0, -0.0, 1 / 3]), np.array([1e300, -2.5, 5e-324])]
    path = tmp_path / "pts.json"
    write_points(pts, path)
    want = io.StringIO()
    json.dump({"points": [p.tolist() for p in pts]}, want)
    assert path.read_text() == want.getvalue()
    back = read_points(path)
    assert all(np.array_equal(a, b) for a, b in zip(back, pts))


@pytest.mark.parametrize("count", [0, 1, 341, 342, 1000])
def test_points_text_in_blocks_is_the_json_dump_text(tmp_path, count):
    # 341 3-D points fill one block, at 128 bytes per coordinate
    pts = list(np.random.default_rng(3).standard_normal((count, 3)))
    path = tmp_path / "pts.json"
    write_points(pts, path)
    assert path.read_text() == json.dumps({"points": [p.tolist() for p in pts]})


def test_points_text_is_written_a_block_at_a_time(tmp_path):
    # the text of 2,000 16-D points is 0.66 MB, one block's 22 kB
    pts = list(np.random.default_rng(4).standard_normal((2000, 16)))
    path = tmp_path / "pts.json"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_points(pts, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ('{"points": [1.0, 2.0]}', FormatError, "not lists of numbers"),
        ('{"points": [[[1.0, 2.0]], [[3.0, 4.0]]]}', FormatError, "not lists of numbers"),
        ('{"points": [[1.0, "x"]]}', FormatError, "cannot read points file"),
        ('{"points": [[1.0], [2.0, 3.0]]}', FormatError, "mixed lengths"),
        ('{"points": [[1.0, 2.0], [3.0, NaN], [Infinity, 0.0]]}', NonFiniteEntry,
         "point 1 has a non-finite coordinate"),
        # json reads a 401-digit integer exactly; its float overflows
        pytest.param('{"points": [[1%s, 2.0], [0.0, 1.0]]}' % ("0" * 400), FormatError,
                     "cannot read points file", id="overflow"),
        pytest.param('{"points": [[1%s, 2.0], [1.0]]}' % ("0" * 400), FormatError,
                     "cannot read points file", id="overflow-ragged"),
    ],
)
def test_read_points_rejects_by_name(tmp_path, doc, error, message):
    path = tmp_path / "pts.json"
    path.write_text(doc)
    with pytest.raises(error, match=re.escape(message)) as exc:
        read_points(path)
    assert str(path) in str(exc.value)


def test_read_points_is_one_array(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text('{"points": [[1.0, 2.0], [3.0, 4.5], [-0.0, 1e300]]}')
    pts = read_points(path)
    assert pts.dtype == np.float64 and pts.shape == (3, 2)
    assert np.array_equal(pts, [[1.0, 2.0], [3.0, 4.5], [-0.0, 1e300]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("as_array", [True, False])
def test_non_finite_points_are_not_written(tmp_path, bad, as_array):
    # 2,000 3-D points are six blocks; the bad one is in the fifth
    pts = np.random.default_rng(2).standard_normal((2000, 3))
    pts[1500, 2] = bad
    path = tmp_path / "pts.json"
    with pytest.raises(NonFiniteEntry, match=re.escape(
            f"{path}: point 1500 has a non-finite coordinate")):
        write_points(pts if as_array else list(pts), path)
    assert not path.exists()


def test_read_points_empty(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text('{"points": []}')
    assert len(read_points(path)) == 0
