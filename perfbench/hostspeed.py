"""The host's speed, sampled next to the timed work.

On a shared virtual machine the speed of identical work drifts by tens of
percent within seconds and between runs minutes apart, so no statistic taken
over a run's own times removes it.  A fixed block of pure-Python work, timed
next to the program's work, slows down with it.  A measured time is divided
by the block's slowdown over that same stretch, relative to
:data:`NOMINAL_S`.  The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

#: Typical time of one :func:`block` on the 2.1 GHz Xeon virtual machine the
#: benchmark was built on, in seconds.  Scaled times read as times there.
NOMINAL_S = 0.0075


def block() -> None:
    """A fixed mix of interpreter work: dict updates, str building, JSON."""
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    "".join(str(i) for i in range(3_000))
    json.loads(json.dumps({"values": list(range(2_000))}))


class HostSpeed:
    """Times of :func:`block` sampled through a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        # The block makes no reference cycles.  With the collector off, a
        # collection of the workload's heap cannot land inside a timing.
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            block()
            self.samples.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    def slowdown(self, since: int = 0) -> float:
        """How many times slower than :data:`NOMINAL_S` the blocks from *since* on ran."""
        return statistics.median(self.samples[since:]) / NOMINAL_S

    def scale(self, seconds: float, since: int) -> float:
        """*seconds* measured while the blocks from *since* on were taken, at nominal speed."""
        return seconds / self.slowdown(since)

    def timed(self, fn, *args, **kwargs):
        """Call *fn* between two blocks; return its value, raw and scaled time."""
        since = len(self.samples)
        self.sample()
        started = time.perf_counter()
        value = fn(*args, **kwargs)
        wall = time.perf_counter() - started
        self.sample()
        return value, wall, self.scale(wall, since)
