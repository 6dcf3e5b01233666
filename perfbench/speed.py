"""Host speed probe: times are reported in reference-host seconds.

On a shared host the speed of pure-Python code drifts by a third or more
over minutes, as neighbours load the same cores and caches, with swings
that last a fraction of a second on top.  A fixed probe, run just before
and just after each timed region, tracks that drift: the region's times
are scaled by REFERENCE_S / (mean of its two probe times).  A raw time
equals the reported time on a host where the probe takes REFERENCE_S.

The probe is benchmark code, never engine code, so it costs the same on
every commit.  It runs with the collector off, so the size of the engine's
heap does not change what it measures.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Median probe time on the 2-core x86-64 host (Python 3.11) that measured
# the baseline in README.md.
REFERENCE_S = 0.064


class _Cell:
    __slots__ = ("key", "next", "val")

    def __init__(self, key, nxt, val):
        self.key = key
        self.next = nxt
        self.val = val


def _probe_work(n: int = 30000) -> int:
    """Object allocation, tuple hashing, dict lookups and pointer chasing:
    the operations the engine spends its time on."""
    index = {}
    cell = None
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = ("s", x % 5003, (x >> 8) % 7919)
        cell = _Cell(key, cell, i)
        index[key] = cell
    total = 0
    x = 777
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        found = index.get(("s", x % 5003, (x >> 8) % 7919))
        if found is not None:
            total += found.val
    while cell is not None:
        total ^= cell.val
        cell = cell.next
    return total


def probe() -> float:
    """Seconds one run of the probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _probe_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedScale:
    """Brackets consecutive timed regions with probes and keeps their scale
    factors; the probe that ends one region starts the next."""

    def __init__(self):
        self.factors: list = []
        self._before = 0.0

    def start(self) -> None:
        """Probe right before the first region of a chain."""
        self._before = probe()

    def mark(self) -> float:
        """Probe right after a region; its factor.  Starts the next region."""
        after = probe()
        factor = 2 * REFERENCE_S / (self._before + after)
        self._before = after
        self.factors.append(factor)
        return factor

    def typical(self) -> float:
        """Median factor of the run (1 before any region)."""
        return statistics.median(self.factors) if self.factors else 1.0
