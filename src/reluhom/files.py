"""Small file helpers shared by the CLI: point sets and bit-string files.

A points file is JSON, ``{"points": [[...], ...]}``, one list of finite
floats per point, all of one length.  ``read_points`` returns one (n, m)
float64 array made by one conversion of the list; only a list that will not
convert is looked at point by point, to name what is wrong with it.
``write_points`` checks every coordinate is finite before it opens the file,
then writes the text of ``json.dumps`` a block of points at a time.

A bits file holds one activation pattern per point, each a line of ASCII
``0``/``1`` digits (bit 0 first), all lines of one length; blank lines are
skipped.  Patterns travel as one ``network.PackedBits`` byte array, with
no Python object per pattern.  Bits files are written from it a block of
whole lines at a time as bytes: one ``unpackbits`` per block.  A file of
equal lines of ``0``/``1`` bytes, each ending in a newline, is read into
it a block of whole lines at a time: one ``packbits`` per block.  Any
other layout (blank lines, spaces, CRLF line ends, a bad line) is read one
line at a time by ``BitVector.from01``, which names the line of an error,
and the vectors are packed once at the end.
"""

import json

import numpy as np

from . import _kernels
from .errors import FormatError, NonFiniteEntry
from .network import BitVector, PackedBits


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
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
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
    """The text of json.dumps({"points": [...]}), made and written a block of
    points at a time, one tolist() per block.  A non-finite coordinate is an
    error, raised before the file is opened; it is looked for a block at a
    time too, so a list of points is never copied whole."""
    # json.dumps holds a float and its string, about 128 bytes, per
    # coordinate until it joins them
    blocks = _kernels.blocks(len(points), 128 * np.size(points[0])) if len(points) else []
    for blk in blocks:
        finite = np.isfinite(np.asarray(points[blk])).all(axis=1)
        if not finite.all():
            bad = blk.start + int(np.argmin(finite))
            raise NonFiniteEntry(f"{path}: point {bad} has a non-finite coordinate")
    with open(path, "w") as fh:
        fh.write('{"points": [')
        for blk in blocks:
            # json.dumps runs the C encoder; json.dump(obj, fh) would not
            block = np.asarray(points[blk]).tolist()
            fh.write((", " if blk.start else "") + json.dumps(block)[1:-1])
        fh.write("]}")


def read_bits(path):
    """One 0/1 string per line -> PackedBits, all of one length."""
    try:
        with open(path, "rb") as fh:
            bits = _read_bit_blocks(fh)
        if bits is not None:
            return bits
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
    return PackedBits.of(vectors)


def _read_bit_blocks(fh):
    """The PackedBits of a binary bits stream of equal "0"/"1" lines, each
    ending in a newline, or None for any other layout."""
    first = fh.readline()
    width = len(first)              # h bits and the newline
    if width < 2 or not first.endswith(b"\n"):
        return None
    h, blocks = width - 1, []
    size = width * _kernels.per_block(width)
    data = first + fh.read(size - width)
    while data:
        if len(data) % width:
            return None
        lines = np.frombuffer(data, np.uint8).reshape(-1, width)
        bits = lines[:, :h] - 48    # any byte but "0" and "1" wraps past 1
        if bits.max() > 1 or (lines[:, h] != 10).any():
            return None
        blocks.append(np.packbits(bits, axis=1, bitorder="little"))
        data = fh.read(size)
    return PackedBits(np.concatenate(blocks), h)


def write_bits(vectors, path):
    """One 0/1 line per vector of a PackedBits or a sequence of BitVectors,
    written a block of whole lines at a time; vectors of mixed lengths are
    an error, raised before the file is opened."""
    bits = PackedBits.of(vectors)
    h = bits.h
    with open(path, "wb") as fh:
        for blk in _kernels.blocks(len(bits), h + 1):
            packed = bits.packed[blk]
            lines = np.full((len(packed), h + 1), 10, np.uint8)
            lines[:, :h] = np.unpackbits(packed, axis=1, count=h, bitorder="little")
            lines[:, :h] += 48
            fh.write(lines.tobytes())
