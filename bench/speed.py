"""Machine-speed calibration: a fixed pure-Python kernel timed between ops.

On a shared machine the speed of one core can drift by up to 2x within
minutes, far more than most code changes move a timing.  Each run
therefore interleaves short chunks of a fixed kernel with its ops and
divides every op time by the slowness observed during its pass (mean
chunk time over ``CHUNK_NOMINAL_S``): times read as on a machine where one
chunk takes ``CHUNK_NOMINAL_S``.  This cancels the drift only because
kernel and ops see the same core in the same state, so chunks must run
between ops, never in one block.

The kernel must never change: changing it rescales every timing metric.
"""

from __future__ import annotations

import math
import time

CHUNK_NOMINAL_S = 0.002


def _chunk() -> float:
    # Float math, calls, small dicts: the operation mix of decoyqkd's scalar code.
    s = 0.0
    x = 0.3
    for i in range(4000):
        x = math.sqrt(x * 0.999 + 1e-3)
        s += math.exp(-x) * x / (1.0 + i)
        d = {"a": x, "b": s}
        s += d["a"] * 1e-9
    return s


class SpeedMeter:
    """Accumulates kernel chunk times observed during one measurement."""

    def __init__(self) -> None:
        self.chunks = 0
        self.seconds = 0.0

    def tick(self, chunks: int = 1) -> None:
        for _ in range(chunks):
            start = time.perf_counter()
            _chunk()
            self.seconds += time.perf_counter() - start
            self.chunks += 1

    def slowness(self) -> float:
        """Observed mean chunk time over the nominal one (2.0 = half speed)."""
        return self.seconds / self.chunks / CHUNK_NOMINAL_S
