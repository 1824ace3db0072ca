"""A fixed reference computation that tracks the machine's speed during a run.

On shared hosts the same code can run up to 1.5x slower for stretches of
seconds to minutes, in CPU time as well as wall time.  The benchmark times
this computation next to the operations and divides each operation's time by
it, so a slow stretch of the machine cancels out.  Reported timings are
scaled as if the reference took exactly ``REF_MS``; the unit ``ref-ms`` is
that millisecond.  The reference mixes interpreter work with small LAPACK
calls, as pcpkit's operations do, and is part of the benchmark, so a change
to pcpkit never changes it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from collections import deque

import numpy as np

REF_MS = 0.5              # nominal duration of one reference computation
SAMPLE_EVERY_S = 0.02     # at most one reference sample per this much wall time
WINDOW_S = 0.25           # reference samples this close to an operation scale it
MIN_SAMPLES = 3
REF_SAMPLES = 5           # samples behind the set-up time's scale; as many again warm up

_A = np.random.default_rng(0).standard_normal((48, 48))
_S = _A @ _A.T


def reference_ms() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    table = {i: [i, 2 * i] for i in range(300)}
    np.linalg.eigvalsh(_S)
    np.linalg.svd(_A, compute_uv=False)
    del table
    return (time.perf_counter() - start) * 1e3


class SpeedGauge:
    """Reference samples taken between operations, with the time they were taken."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        reference_ms()            # the first call pays for cold caches

    def tick(self) -> None:
        """Take a reference sample if the last one is older than ``SAMPLE_EVERY_S``."""
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            ms = reference_ms()
            self.times.append(time.perf_counter())
            self.samples.append(ms)

    def normalize(self, spans: list[tuple[float, float]]) -> list[float]:
        """Reference-normalized seconds for each (start, seconds) operation span.

        Each span is scaled by ``REF_MS`` over the median of the reference
        samples taken within ``WINDOW_S`` of it, or of the ``MIN_SAMPLES``
        nearest ones when fewer were taken that close.
        """
        out = []
        for start, seconds in spans:
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, start + seconds + WINDOW_S)
            while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
                if hi >= len(self.times) or (lo > 0 and start - self.times[lo - 1]
                                             < self.times[hi] - start - seconds):
                    lo -= 1
                else:
                    hi += 1
            out.append(seconds * REF_MS / statistics.median(self.samples[lo:hi]))
        return out
