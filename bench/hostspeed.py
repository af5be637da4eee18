"""Host-speed probe: a fixed piece of pure-Python work timed between jobs.

The benchmark shares its host with other tenants.  On the 2-vCPU VM it
was written on, the same compile took anywhere from 1x to 2x its usual
time for tens of seconds at a stretch, and a fixed loop slowed down with
it, in wall and CPU time alike.  No statistic over one run removes a
slowdown that lasts the whole run.  So the closed-loop timed passes run
this probe between jobs, and every call's wall time is rescaled by the
host's speed at that moment: the median of the probes taken within
:data:`WINDOW_S` of the job, against :data:`REFERENCE_S`.  A job's
reported time is what it would have taken had those probes run in
:data:`REFERENCE_S`.

The probe is the benchmark's own code, so a change to the program never
moves it; a program that gets slower still reads slower.

The host's slow spells belong to one CPU at a time, so a probe tracks
only work on its own CPU: set-up spawns are rescaled by probes in the
spawned interpreter (``setup_once.py``), not in ``run.py``.  The
open-loop gateway probes in its generator thread while the gateway is
idle, with the generator and the dispatcher thread pinned to one CPU
(``workload.Gateway``).
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

__all__ = ["EVERY_S", "REFERENCE_S", "WINDOW_S", "HostSpeed"]

#: Probe time at the reference speed: its typical time on a 2-vCPU Xeon
#: VM at 2.0 GHz under Python 3.11 in a quiet spell.
REFERENCE_S = 0.003

#: Probes at most this far (seconds) before a job starts or after it ends
#: set the host's speed for that job.
WINDOW_S = 0.25

#: Least time between two probes, which then take 3-5% of a closed
#: loop's run.
EVERY_S = 0.1


class _Node:
    __slots__ = ("key", "edges")

    def __init__(self, key: int) -> None:
        self.key = key
        self.edges: list[_Node] = []


def _work() -> float:
    """Object allocation, attribute access, dicts, lists, sorting and
    float arithmetic, the mix the mapper itself spends its time on."""
    rng = random.Random(7)
    nodes = [_Node(i) for i in range(600)]
    for node in nodes:
        node.edges = [nodes[rng.randrange(600)] for _ in range(4)]
    dist = {0: 0}
    frontier = [nodes[0]]
    while frontier:
        reached = []
        for node in frontier:
            for other in node.edges:
                if other.key not in dist:
                    dist[other.key] = dist[node.key] + 1
                    reached.append(other)
        frontier = reached
    pairs = sorted(((d, k) for k, d in dist.items()), reverse=True)
    total = 0.0
    for _ in range(20):
        for d, k in pairs:
            total += (d * 0.5 + k) % 7
    return total


class HostSpeed:
    """Probe samples of one process, on the ``time.monotonic`` clock."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        start = time.monotonic()
        begin = time.perf_counter()
        _work()
        took = time.perf_counter() - begin
        self.at.append(start + took / 2)
        self.took.append(took)

    def sample_if_due(self) -> None:
        """Probe unless the last probe is under :data:`EVERY_S` old."""
        if not self.at or time.monotonic() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float, window: float = WINDOW_S) -> float:
        """Factor that turns a wall time spent over ``[start, end]`` into
        reference time (below 1 on a slow host), from the probes at most
        ``window`` seconds outside it."""
        lo = bisect.bisect_left(self.at, start - window)
        hi = bisect.bisect_right(self.at, end + window)
        if hi > lo:
            return REFERENCE_S / statistics.median(self.took[lo:hi])
        middle = (start + end) / 2
        nearest = min(range(len(self.at)),
                      key=lambda i: abs(self.at[i] - middle))
        return REFERENCE_S / self.took[nearest]

    def speed(self) -> float:
        """The host's median speed over every probe (1.0: reference)."""
        return REFERENCE_S / statistics.median(self.took)
