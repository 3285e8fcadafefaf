"""Host speed, measured with a fixed reference computation.

A shared host runs the same code up to 1.8x slower for seconds to
minutes at a time, with no steal time showing, and nothing inside one
run can average that away. The benchmark therefore times a fixed
reference computation next to the program, between the program's timed
operations, and scales each timing by how fast the host ran the
reference around it: a timing in *reference seconds* is what it would
have read on a host where the reference takes :data:`REFERENCE_S`.

The reference is the benchmark's own code and shares nothing with the
program under ``src/``, so a change to the program moves the program's
timings and never the scale. It mixes what the program does: an event
heap, dict and attribute updates on small objects, sorting, and numpy
operations on arrays of a few thousand elements.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

import numpy as np

#: Seconds one :func:`reference` takes on an idle host of the kind the
#: benchmark was written on (2 vCPUs of a 2.1 GHz Xeon); the unit of
#: every scaled timing.
REFERENCE_S = 0.015
#: Reference runs per sample; a sample is their median.
REPEATS = 3


class _Node:
    __slots__ = ("busy", "until")

    def __init__(self) -> None:
        self.busy = 0
        self.until = 0.0


def reference() -> float:
    """The fixed reference computation; returns a checksum."""
    rng = random.Random(7)
    nodes = [_Node() for _ in range(64)]
    heap: list[tuple[float, int]] = []
    waiting: dict[int, float] = {}
    times = np.linspace(0.0, 1.0, 4096)
    total = 0.0
    for i in range(12000):
        t = rng.random()
        heapq.heappush(heap, (t, i))
        waiting[i] = t
        if len(heap) > 256:
            t, j = heapq.heappop(heap)
            node = nodes[j & 63]
            node.busy += 1
            node.until = max(node.until, t) + waiting.pop(j)
        if i % 500 == 0:
            mask = times < t
            total += float(np.cumsum(times[mask]).sum())
            order = sorted(waiting.items(), key=lambda kv: (kv[1], kv[0]))
            total += order[0][1]
    return total + sum(n.until for n in nodes)


def sample() -> float:
    """Seconds of one reference run now: the median of :data:`REPEATS`."""
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)
