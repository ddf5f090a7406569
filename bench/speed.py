"""Host speed, sampled by a fixed reference loop run between operations.

The benchmark runs on shared machines whose speed drifts by a quarter and
more, for identical work, over regimes that last minutes.  Every reported
time is therefore scaled to a reference speed: a latency measured while
the reference loop took r seconds is reported as latency * REFERENCE_S / r.
The reference loop is pure Python of the engine's kind (bitmask fixpoint,
tuple keys, dict updates) and does not touch bvass1, so a change to the
program moves the scaled times as it moves the wall-clock ones, while a
slow or fast moment of the host moves both the operation and the loop.
"""
from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# About the reference loop's median time on a shared 2-CPU x86-64 virtual
# machine under CPython 3.11.7, so scaled times read as times on that machine.
REFERENCE_S = 0.0033
PROBE_GAP_S = 0.1  # wall time between probes, at most one probe after each operation
WINDOW = 15  # probes on each side of a moment that give its speed

# The graph is large enough (about 100 KB of masks and keys) that the loop
# leans on the caches as the engine's larger operations do: a loop over a
# 96-node graph sped up and slowed down more than they did.
_RNG = random.Random(20160217)
_N = 600
_BITS = 200
_EDGES = tuple(tuple(_RNG.randrange(_N) for _ in range(3)) for _ in range(_N))
_SHIFTS = tuple(tuple(_RNG.randint(-3, 3) for _ in range(3)) for _ in range(_N))
_MASK = (1 << _BITS) - 1


def reference_work() -> int:
    """The fixed reference loop: two sweeps of bitmask propagation over a fixed graph."""
    masks = [1 << (q % _BITS) for q in range(_N)]
    updates: dict[tuple[int, int], int] = {}
    for _ in range(2):
        for q in range(_N):
            m = masks[q]
            for t, s in zip(_EDGES[q], _SHIFTS[q]):
                new = masks[t] | ((m << s) if s >= 0 else (m >> -s)) & _MASK
                if new != masks[t]:
                    masks[t] = new
                    updates[q, t] = updates.get((q, t), 0) + 1
    return sum(m.bit_count() for m in masks) + len(updates)


class Speed:
    """Times of the reference loop over a run, and the scale they give a moment."""

    def __init__(self):
        self.times: list[float] = []  # midpoints, in perf_counter seconds, ascending
        self.durations: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        """Time the reference loop once.

        The collector is off, so that garbage the program left behind is not
        collected on the loop's time.  An untimed pass runs first: a loop run
        straight after a large operation finds the caches full of that
        operation's data and runs 5-15% slower, which would charge the
        program's own footprint to the host.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_work()
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._last = t1

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= PROBE_GAP_S:
            self.probe()

    def scale(self, moment: float) -> float:
        """REFERENCE_S over the median loop time of the probes nearest ``moment``."""
        i = bisect.bisect_left(self.times, moment)
        near = self.durations[max(0, i - WINDOW): i + WINDOW]
        return REFERENCE_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.durations)
