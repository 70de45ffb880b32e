import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reluhom.errors import FormatError
from reluhom.files import read_bits, read_points, write_bits, write_points
from reluhom.network import BitVector
from oracles import bits_text


@st.composite
def bit_files(draw):
    """1-20 bit vectors of one common length, 1-200 bits."""
    n = draw(st.integers(1, 200))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=1, max_size=20))
    return [BitVector.from_bits(r) for r in rows]


@given(bit_files())
def test_bits_file_matches_oracle_and_round_trips(vectors):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bits.txt"
        write_bits(vectors, path)
        assert path.read_text() == "".join(bits_text(v) + "\n" for v in vectors)
        assert read_bits(path) == vectors


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


def test_points_text_is_the_json_dump_text(tmp_path):
    pts = [np.array([0.0, -0.0, 1 / 3]), np.array([1e300, -2.5, 5e-324])]
    path = tmp_path / "pts.json"
    write_points(pts, path)
    want = io.StringIO()
    json.dump({"points": [p.tolist() for p in pts]}, want)
    assert path.read_text() == want.getvalue()
    back = read_points(path)
    assert all(np.array_equal(a, b) for a, b in zip(back, pts))
