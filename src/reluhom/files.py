"""Small file helpers shared by the CLI: point sets and bit-string files.

A points file is JSON, ``{"points": [[...], ...]}``, one list of finite
floats per point, all of one length.  A bits file holds one activation
pattern per point, each a line of ASCII ``0``/``1`` digits (bit 0 first),
all lines of one length; blank lines are skipped.  Bits files are written
one line at a time, each line rendered from one Python int
(``BitVector.to01``), not one Python call per bit.  A file of equal lines of
``0``/``1`` bytes, each ending in a newline, is read a block of whole lines
at a time as a byte array: one ``packbits`` per block and one
``int.from_bytes`` per line.  Any other layout (blank lines, spaces, CRLF
line ends, a bad line) is read one line at a time by ``BitVector.from01``,
which names the line of an error.
"""

import json

import numpy as np

from .errors import FormatError, NonFiniteEntry
from .network import BitVector

# coordinates whose JSON text is made at once: json.dumps holds one string
# per number until it joins them, many times the size of the text
_FLOATS_PER_WRITE = 1024
# bytes of a bits file parsed at a time (whole lines, at least one)
_BITS_BLOCK = 1 << 16


def read_points(path):
    """JSON {"points": [[...], ...]} -> list of float vectors."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        pts = [np.asarray(p, dtype=np.float64) for p in doc["points"]]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"cannot read points file {path}: {exc}") from exc
    if not pts:
        return pts
    if pts[0].ndim != 1:
        raise FormatError(f"points in {path} are not lists of numbers")
    if any(p.shape != pts[0].shape for p in pts):
        raise FormatError(f"points in {path} have mixed lengths")
    bad = np.flatnonzero(~np.isfinite(np.asarray(pts)).all(axis=1))
    if bad.size:
        raise NonFiniteEntry(f"{path}: point {bad[0]} has a non-finite coordinate")
    return pts


def write_points(points, path):
    """The text of json.dumps({"points": [...]}), made and written about
    _FLOATS_PER_WRITE coordinates at a time."""
    step = max(1, _FLOATS_PER_WRITE // max(1, np.size(points[0]))) if len(points) else 1
    with open(path, "w") as fh:
        fh.write('{"points": [')
        for lo in range(0, len(points), step):
            # json.dumps runs the C encoder; json.dump(obj, fh) would not
            block = [np.asarray(p).tolist() for p in points[lo: lo + step]]
            fh.write((", " if lo else "") + json.dumps(block)[1:-1])
        fh.write("]}")


def read_bits(path):
    """One 0/1 string per line -> list of BitVector, all of one length."""
    try:
        with open(path, "rb") as fh:
            vectors = _read_bit_blocks(fh)
        if vectors is not None:
            return vectors
        vectors = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    v = BitVector.from01(line)
                except FormatError as exc:
                    raise FormatError(f"{path}:{lineno}: {exc}") from exc
                if vectors and len(v) != len(vectors[0]):
                    raise FormatError(
                        f"{path}:{lineno}: {len(v)} bits, "
                        f"but the first line has {len(vectors[0])}"
                    )
                vectors.append(v)
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read bits file {path}: {exc}") from exc
    return vectors


def _read_bit_blocks(fh):
    """The vectors of a binary bits stream of equal "0"/"1" lines, each
    ending in a newline, or None for any other layout."""
    first = fh.readline()
    width = len(first)              # h bits and the newline
    if width < 2 or not first.endswith(b"\n"):
        return None
    h, vectors = width - 1, []
    size = width * max(1, _BITS_BLOCK // width)
    data = first + fh.read(size - width)
    while data:
        if len(data) % width:
            return None
        lines = np.frombuffer(data, np.uint8).reshape(-1, width)
        bits = lines[:, :h] - 48    # any byte but "0" and "1" wraps past 1
        if bits.max() > 1 or (lines[:, h] != 10).any():
            return None
        packed = np.packbits(bits, axis=1, bitorder="little")
        vectors.extend(BitVector(h, int.from_bytes(row, "little")) for row in packed)
        data = fh.read(size)
    return vectors


def write_bits(vectors, path):
    with open(path, "w") as fh:
        for v in vectors:
            fh.write(v.to01())
            fh.write("\n")
