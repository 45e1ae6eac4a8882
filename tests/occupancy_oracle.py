"""The low level's view of the other agents as it stood before the
conflict-tree driver kept one index per node.

`_OtherAgents` is kept verbatim as a test oracle for the conflict counts
and wait bounds that `mapf_dp.ame` reads off a node's plan, and for the index
that `Plan.swap` leaves: it is rebuilt from the other agents' paths on
every call, and it answers each query with method calls.  It derives from
the occupancy index of that time, kept verbatim here as `Occupancy` with
the `count` and `conflict_increment` it read, so the oracle shares no code
with the index of `mapf_dp.model.Plan`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

from mapf_dp.model import Path


class Occupancy:
    """Agents at each (vertex, index) of goal-padded paths, numbered by their
    position in `paths`; needs no labels.  `at` lists path j at (l_j(x), x)
    for x < X_j; `parked` holds (X_j, j) under j's goal, where it stays."""

    def __init__(self, paths: Sequence[Path]):
        self.at: dict[tuple[int, int], list[int]] = {}
        self.parked: dict[int, list[tuple[int, int]]] = {}
        for j, p in enumerate(paths):
            for key in zip(p.vertices, range(p.last_index)):
                self.at.setdefault(key, []).append(j)
            self.parked.setdefault(p.vertices[-1], []).append((p.last_index, j))

    def count(self, vertex: int, x: int) -> int:
        n = len(self.at.get((vertex, x), ()))
        for since, _ in self.parked.get(vertex, ()):
            n += since <= x
        return n

    def conflict_increment(self, vertex: int, x: int) -> int:
        """Violations of one more agent at (vertex, x) with the indexed paths,
        one per agent there at x, x-1 (followed) and x+1 (following)."""
        return self.count(vertex, x - 1) + self.count(vertex, x) + self.count(vertex, x + 1)


class _OtherAgents(Occupancy):
    """The fixed labeled paths of every agent but `agent`, in id order: their
    occupancy for conflict counts, plus wait bounds from their labels."""

    def __init__(self, paths: Sequence[Path], agent: int):
        super().__init__(paths)
        # per vertex: visit indices x'' (with x'' < X_j) sorted, with prefix-max
        # of the labels at x'' + 1 -- the earliest admissible entry follows the
        # latest qualifying departure
        entries: dict[int, list[tuple[int, float]]] = {}
        for k, p in enumerate(paths):
            if p.labels is None:
                raise ValueError(f"agent {k + (k >= agent)}: the low level needs labeled paths")
            for xpp in range(p.last_index):
                entries.setdefault(p.vertices[xpp], []).append(
                    (xpp, p.labels[xpp + 1]))
        self.visit_x: dict[int, list[int]] = {}
        self.visit_maxlabel: dict[int, list[float]] = {}
        for v, lst in entries.items():
            lst.sort()
            xs, prefix = [], []
            best = -math.inf
            for xpp, lab in lst:
                best = max(best, lab)
                xs.append(xpp)
                prefix.append(best)
            self.visit_x[v] = xs
            self.visit_maxlabel[v] = prefix

    def wait_bound(self, vertex: int, x: int) -> float:
        """Max stored label over departures (j, x''+1) with x'' < x-1 through vertex."""
        xs = self.visit_x.get(vertex)
        if not xs:
            return -math.inf
        k = bisect_right(xs, x - 2)
        if k == 0:
            return -math.inf
        return self.visit_maxlabel[vertex][k - 1]
