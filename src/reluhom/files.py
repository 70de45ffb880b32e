"""Small file helpers shared by the CLI: point sets and bit-string files.

A points file is JSON, ``{"points": [[...], ...]}``, one list of finite
floats per point, all of one length.  A bits file holds one activation
pattern per point, each a line of ASCII ``0``/``1`` digits (bit 0 first),
all lines of one length; blank lines are skipped.  Bits files are read and
written one line at a time, each line parsed or rendered as one Python int
(``BitVector.from01`` / ``to01``), not one Python call per bit.
"""

import json

import numpy as np

from .errors import FormatError, NonFiniteEntry
from .network import BitVector

# coordinates whose JSON text is made at once: json.dumps holds one string
# per number until it joins them, many times the size of the text
_FLOATS_PER_WRITE = 1024


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
    vectors = []
    try:
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


def write_bits(vectors, path):
    with open(path, "w") as fh:
        for v in vectors:
            fh.write(v.to01())
            fh.write("\n")
