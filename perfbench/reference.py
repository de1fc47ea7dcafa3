"""A fixed reference workload that measures how fast the host runs right now.

The host's speed drifts by up to 1.6x within a minute (seen on a 2-vCPU VM),
and the library's latency follows it. This kernel does the same kinds of work
as the library, in roughly equal parts: calls on small frozen dataclasses
with integer cross products (the segment checker, the geometry), dict, tuple
and sort work (the embedder, the set validation), and a loop of boolean
numpy operations on 1000-element rows (the DP decider). It never calls pdce,
so no change to the library changes its cost; its time is the host's speed.

The benchmark times one kernel call after every op and scales each op's
latency by REFERENCE_MS over the median time of the kernel calls nearest to
it. The timing metrics therefore read as milliseconds on a host on which the
kernel takes REFERENCE_MS. Over 8-second windows of one loop, the ratio of
op time to kernel time moved 3-4 % (interquartile range over median) while
the raw op time moved 14-17 %.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

# About the kernel's time on the VM the baseline comes from, at its fast end.
REFERENCE_MS = 5.0
# The same for `import numpy` in a fresh interpreter. Imports are file and
# memory-mapping work whose speed does not follow the kernel's, so the
# import of pdce is scaled by this import instead, which pdce cannot change.
REFERENCE_IMPORT_S = 0.1


@dataclass(frozen=True)
class _Point:
    x: int
    y: int


def _cross(a: _Point, b: _Point, c: _Point) -> int:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


class Reference:
    """Holds the kernel's fixed inputs. Build it after pdce is imported, so
    that its numpy import is not taken out of the measured import."""

    def __init__(self):
        import numpy

        self._np = numpy
        rng = numpy.random.default_rng(20140818)
        self._xs = rng.integers(0, 1000, size=1000)
        self._ys = rng.integers(0, 1000, size=1000)
        self._points = [_Point(int(x), int(y)) for x, y in zip(self._xs[:200], self._ys[:200])]
        self.work()  # first call: allocations and caches

    def work(self) -> int:
        pts = self._points
        acc = 0
        for i in range(len(pts) - 2):
            a, b = pts[i], pts[i + 1]
            for j in range(i + 2, min(i + 40, len(pts))):
                acc += _cross(a, b, pts[j]) > 0
        seen = {}
        for i in range(8000):
            t = (i, i * 7 % 1013)
            seen[t[1]] = t
            acc += t[0] ^ t[1]
        acc += len(sorted(seen.values(), key=lambda t: t[1] - t[0]))
        np = self._np
        row = np.zeros(len(self._xs), dtype=bool)
        for r in range(300):
            row |= (self._xs > r) & (self._ys < 1000 - r)
            acc += int(np.count_nonzero(row))
        return acc

    def time_ms(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return 1e3 * (time.perf_counter() - t0)

    def scale(self, samples_ms) -> float:
        """Factor that turns a time measured alongside these samples into
        reference-host time."""
        return REFERENCE_MS / statistics.median(samples_ms)
