"""A fixed reference computation that expresses wall times in machine speed.

On a few cores of a shared host the same operation runs up to half again
slower for a minute or more at a time, as other tenants load the host,
and the fastest of many operations moves almost as much as their median.
The worker times this yardstick right after each operation; the ratio of
the two times moves far less, because both slow down together.  The
yardstick runs no reluhom code, so a change to the package moves the ratio
exactly as it moves the operation's time.

Its three parts mirror the kinds of work the workloads do: an interpreter
loop over a heap and a set (the column reduction), pivots on a small dense
tableau (the LPs), and whole-array XOR and matrix products (bit vectors and
the Hamming matrix).  A ratio against one part alone tracked the workloads
less well than against the sum.
"""

import heapq
from time import perf_counter

import numpy as np

# Nominal seconds of one yardstick call, about its time on an idle core of
# the 2-core Xeon VM the bounds were set on.  wall_norm_s is an operation's
# time in yardsticks times this, so it reads as seconds on a core on which
# the yardstick takes exactly this long.
SECONDS = 0.08


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.tableau = rng.standard_normal((40, 60))
        self.words = rng.integers(0, 2**63, size=(300, 16), dtype=np.uint64)
        self.points = rng.standard_normal((600, 256))
        self.weights = rng.standard_normal((256, 256))

    def __call__(self):
        """Run the reference computation once; returns its wall seconds."""
        start = perf_counter()
        heap, seen = [], set()
        for i in range(40000):
            heapq.heappush(heap, (i * 7919) % 10007)
            if len(heap) > 64:
                seen.add(heapq.heappop(heap))
        for _ in range(30):
            t = self.tableau.copy()
            for j in range(t.shape[0]):  # Gauss-Jordan with partial pivoting
                i = j + int(np.argmax(np.abs(t[j:, j])))
                t[[i, j]] = t[[j, i]]
                row = t[j] / t[j, j]
                t -= np.outer(t[:, j], row)
                t[j] = row
        for _ in range(2):
            xor = self.words[:, None, :] ^ self.words[None, :, :]
            active = np.maximum(self.points @ self.weights, 0.0) > 0
        del xor, active
        return perf_counter() - start
