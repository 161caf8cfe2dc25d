"""A host-speed reference that the end-to-end timings are normalised by.

On a shared host the speed one process gets moves by tens of percent over
minutes, for every kind of code at once: on a shared 2-vCPU VM, six runs of
the same workload minutes apart computed the same gradients up to 1.7x faster
in one run than in another.  So every timed operation is followed by a few
units of a fixed piece of interpreter and array work that does not touch
routeirl, one unit (about 1 ms) per 30 ms of operation.  The mean time
of a unit over the run is the host speed the run saw.  Each end-to-end time
is scaled by REF_UNIT_S over that mean, and each rate by its inverse: the
metrics read as on a host where one unit takes REF_UNIT_S.  A change to
routeirl moves them as it would move raw times on a steady host, since the
reference does not change with it.  The raw values are printed in the info
line.
"""
from __future__ import annotations

import gc
import heapq
import math
import time

import numpy as np

REF_UNIT_S = 1e-3     # seconds per unit on the host the metrics are scaled to
REF_SHARE = 1 / 30    # reference seconds per second of timed operation

_SIDE = 28   # the reference graph: a _SIDE x _SIDE grid with fixed weights
_ADJ = [[] for _ in range(_SIDE * _SIDE)]
for _u in range(_SIDE * _SIDE):
    _r, _c = divmod(_u, _SIDE)
    for _dr, _dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
        if 0 <= _r + _dr < _SIDE and 0 <= _c + _dc < _SIDE:
            _v = (_r + _dr) * _SIDE + _c + _dc
            _ADJ[_u].append((_v, 1.0 + ((_u * 7 + _v) % 5) * 0.1))


def unit() -> float:
    """One reference unit: a heap-based Dijkstra over a fixed grid in plain
    Python, then one numpy pass over the distances, much as the planners
    work but in code of its own."""
    dist = [math.inf] * len(_ADJ)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ADJ[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return float(np.exp(-np.asarray(dist) / _SIDE).sum())


def units_for(op_seconds: float) -> int:
    """Reference units to run after an operation that took `op_seconds`."""
    return max(1, round(op_seconds * REF_SHARE / REF_UNIT_S))


def measure(units: int) -> float:
    """Seconds for `units` reference units.  The garbage collector is paused,
    so the size of the program's heap does not enter the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(units):
            unit()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference units timed after the operations of one run."""

    def __init__(self):
        self.seconds = 0.0
        self.units = 0

    def sample(self, op_seconds: float) -> None:
        """Time reference units after an operation that took `op_seconds`."""
        units = units_for(op_seconds)
        self.seconds += measure(units)
        self.units += units

    def unit_ms(self) -> float:
        return 1e3 * self.seconds / self.units

    def scale(self) -> float:
        """REF_UNIT_S over the mean unit time: times are multiplied by it,
        rates divided."""
        return REF_UNIT_S * self.units / self.seconds
