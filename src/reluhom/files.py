"""Small file helpers shared by the CLI: point sets and bit-string files.

A points file is JSON, ``{"points": [[...], ...]}``, one list of finite
floats per point, all of one length.  ``read_points`` returns one (n, m)
float64 array made by one conversion of the list; only a list that will not
convert is looked at point by point, to name what is wrong with it.
``write_points`` checks every coordinate is finite before it opens the file,
then writes the text of ``json.dumps`` a block of points at a time.

A bits file holds one activation pattern per point, each a line of ASCII
``0``/``1`` digits (bit 0 first), all lines of one length; blank lines are
skipped.  Bits files are written a block of whole lines at a time as bytes:
one ``to_bytes`` per vector, one ``unpackbits`` per block.  A file of equal
lines of ``0``/``1`` bytes, each ending in a newline, is read a block of
whole lines at a time as a byte array: one ``packbits`` per block and one
``int.from_bytes`` per line.  Any other layout (blank lines, spaces, CRLF
line ends, a bad line) is read one line at a time by ``BitVector.from01``,
which names the line of an error.
"""

import json

import numpy as np

from .errors import DimensionMismatch, FormatError, NonFiniteEntry
from .network import BitVector

# coordinates whose JSON text is made at once: json.dumps holds one string
# per number until it joins them, many times the size of the text
_FLOATS_PER_WRITE = 1024
# bytes of a bits file parsed at a time (whole lines, at least one)
_BITS_BLOCK = 1 << 16


def read_points(path):
    """JSON {"points": [[...], ...]} -> (n, m) float64 array."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        raw = doc["points"]
        try:
            pts = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError):
            pts = None
        if pts is None or pts.ndim != 2:
            pts = _each_point(raw, path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"cannot read points file {path}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise NonFiniteEntry(f"{path}: point {bad[0]} has a non-finite coordinate")
    return pts


def _each_point(raw, path):
    """A point list that is not one 2-D array, converted point by point: its
    error, or (0, 0) for an empty list."""
    pts = [np.asarray(p, dtype=np.float64) for p in raw]
    if not pts:
        return np.empty((0, 0))
    if pts[0].ndim != 1:
        raise FormatError(f"points in {path} are not lists of numbers")
    if any(p.shape != pts[0].shape for p in pts):
        raise FormatError(f"points in {path} have mixed lengths")
    return np.asarray(pts)


def write_points(points, path):
    """The text of json.dumps({"points": [...]}), made and written about
    _FLOATS_PER_WRITE coordinates at a time, one tolist() per block.  A
    non-finite coordinate is an error, raised before the file is opened;
    it is looked for a block at a time too, so a list of points is never
    copied whole."""
    step = max(1, _FLOATS_PER_WRITE // max(1, np.size(points[0]))) if len(points) else 1
    starts = range(0, len(points), step)
    for lo in starts:
        finite = np.isfinite(np.asarray(points[lo: lo + step])).all(axis=1)
        if not finite.all():
            bad = lo + int(np.argmin(finite))
            raise NonFiniteEntry(f"{path}: point {bad} has a non-finite coordinate")
    with open(path, "w") as fh:
        fh.write('{"points": [')
        for lo in starts:
            # json.dumps runs the C encoder; json.dump(obj, fh) would not
            block = np.asarray(points[lo: lo + step]).tolist()
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
    """One 0/1 line per vector, written _BITS_BLOCK bytes of whole lines at a
    time; vectors of mixed lengths are an error, raised before the file is
    opened."""
    lengths = {len(v) for v in vectors}
    if len(lengths) > 1:
        raise DimensionMismatch(f"bit vectors of mixed lengths {sorted(lengths)}")
    h = lengths.pop() if lengths else 0
    size, rows = (h + 7) // 8, max(1, _BITS_BLOCK // (h + 1))
    with open(path, "wb") as fh:
        for lo in range(0, len(vectors), rows):
            block = vectors[lo: lo + rows]
            raw = b"".join(v.value.to_bytes(size, "little") for v in block)
            packed = np.frombuffer(raw, np.uint8).reshape(len(block), size)
            lines = np.full((len(block), h + 1), 10, np.uint8)
            lines[:, :h] = np.unpackbits(packed, axis=1, count=h, bitorder="little")
            lines[:, :h] += 48
            fh.write(lines.tobytes())
