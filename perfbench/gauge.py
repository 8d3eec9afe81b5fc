"""Machine-speed gauge: a fixed reference loop timed between queries.

The benchmark runs on a few cores of a shared host.  There the same work
takes up to 1.7 times as long from one few-second phase to the next, and
CPU time shows it as much as wall time does, so no choice of clock removes
it.  A reference loop that never calls smlr is timed in every gap between
queries.  Each query's time is divided by the local slowdown, the median
reference time near that query over REF_S, which gives seconds at the
reference speed.  A change to smlr moves these times exactly as it moves
wall time, because the reference loop does not depend on smlr; a slow phase
of the host moves both the query and the reference loop, and cancels.

REF_S is close to the reference time of a 2-vCPU 2.1 GHz Xeon VM in a quiet
phase; it only sets the scale.  Raw wall times are printed beside the
normalised ones.
"""

from __future__ import annotations

import heapq
import math
import statistics
from time import perf_counter

import numpy as np

# close to the reference-loop time on the VM named above, in a quiet phase
REF_S = 1.6e-3
# gaps on each side of a query whose reference times give its slowdown
WINDOW = 3

_rng = np.random.default_rng(0)
_POINTS = _rng.random((400, 3))
_POLYGON = _rng.random((6, 2)) * 0.1
_BOXES = np.sort(_rng.random((12, 2, 2)), axis=1)   # (box, lo/hi, x/y)
_GRAPH = {u: [((u * 7 + k) % 100, k + 1.0) for k in range(4)]
          for u in range(100)}


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work of the kinds the planner spends
    its time on: small-batch polygon placement against boxes, a nearest-
    neighbour sort over a few hundred states, and a Dijkstra search over a
    small adjacency dict."""
    t0 = perf_counter()
    hits = 0
    for i in range(20):
        x = _POINTS[i * 10:i * 10 + 10]
        c, s = np.cos(x[:, 2])[:, None], np.sin(x[:, 2])[:, None]
        vx = _POLYGON[:, 0] * c - _POLYGON[:, 1] * s + x[:, :1]
        vy = _POLYGON[:, 0] * s + _POLYGON[:, 1] * c + x[:, 1:2]
        lo = np.stack([vx.min(1), vy.min(1)], axis=1)[:, None, :]
        hi = np.stack([vx.max(1), vy.max(1)], axis=1)[:, None, :]
        hits += int(np.count_nonzero(
            ((lo < _BOXES[:, 1]) & (hi > _BOXES[:, 0])).all(axis=2)))
        d = np.sqrt(((_POINTS - x[0]) ** 2).sum(axis=1))
        hits += int(np.argsort(d)[1])
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in _GRAPH[u]:
            if du + w < dist.get(v, math.inf):
                dist[v] = du + w
                heapq.heappush(heap, (du + w, v))
    return perf_counter() - t0


class Gauge:
    """Reference times taken in the gaps between queries.

    tick() before every query and once after the last one, so that a query
    whose preceding gap is g has gap g + 1 right after it.
    """

    def __init__(self, loop=reference_loop):
        self.loop = loop
        self.gaps: list[float] = []

    def tick(self) -> None:
        """Time the loop twice and keep the faster: the first run after a
        large query can find its data evicted from the caches."""
        self.gaps.append(min(self.loop(), self.loop()))

    def slowdown(self, g: int) -> float:
        """Slowdown of the query between gaps g and g + 1: the median
        reference time of the WINDOW gaps before it and the WINDOW gaps
        after it, over REF_S."""
        near = self.gaps[max(0, g + 1 - WINDOW):g + 1 + WINDOW]
        return statistics.median(near) / REF_S

    def overall(self) -> float:
        """Median slowdown over every gap."""
        return statistics.median(self.gaps) / REF_S
