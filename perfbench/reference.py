"""A fixed pure-Python reference task that measures the machine's current speed.

On a shared machine the speed of one core drifts by tens of percent over
minutes, as other tenants come and go.  The benchmark runs this task after
every timed call and scales the call's time by REF_S over the reference
times around it, so that a timing reads as seconds on a machine where the
reference task takes REF_S.  The task uses only the standard library and
the benchmark's own code, so no change to the program can change it.
"""

from __future__ import annotations

import heapq
from time import perf_counter

REF_S = 0.01     # about the fastest the task was seen to run on a 2-vCPU container
_SIZE = 64


def _blocked(x: int, y: int) -> bool:
    return (x * 7 + y * 3) % 11 == 0 and (x + y) % 5 != 0


def _search(size: int, goal: tuple[int, int]) -> int:
    """Grid Dijkstra with dicts, sets, tuples and a heap: the program's operation mix."""
    g = {(0, 0): 0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    heap = [(0, 0, 0, 0)]   # (g, tie, x, y)
    closed = set()
    while heap:
        _, _, x, y = heapq.heappop(heap)
        if (x, y) in closed:
            continue
        closed.add((x, y))
        if (x, y) == goal:
            break
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < size and 0 <= ny < size and not _blocked(nx, ny):
                ng = g[(x, y)] + 1
                if ng < g.get((nx, ny), 1 << 30):
                    g[(nx, ny)] = ng
                    parent[(nx, ny)] = (x, y)
                    heapq.heappush(heap, (ng, -nx, nx, ny))
    return len(closed)


def reference_seconds() -> float:
    """Wall time of one run of the reference task (about 10 ms)."""
    t0 = perf_counter()
    if _search(_SIZE, (_SIZE - 1, _SIZE - 1)) <= 0:
        raise RuntimeError("reference task did no work")
    return perf_counter() - t0


class Pacer:
    """Runs the reference task between timed calls.  Each call returns the
    scale for the call just timed: REF_S over the mean of the reference
    times just before and just after it."""

    def __init__(self):
        self.times = [reference_seconds()]

    def __call__(self) -> float:
        self.times.append(reference_seconds())
        return 2 * REF_S / (self.times[-2] + self.times[-1])
