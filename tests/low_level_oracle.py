"""AME's low level as it stood with two heaps, before it queued each
improved state once.

`low_level_search` is kept verbatim as a test oracle for
`mapf_dp.ame.low_level_search`: Phase 1 pops a focal heap ordered by
(conflicts, f, -x, v, g, tie), Phase 2 an open heap ordered by
(f, -x, v, g, tie); every successor with f <= key goes into both, so
`expanded_g` skips a state already expanded at the same g, and `conf`
holds each state's accumulated conflicts.  Its states are (vertex, index)
tuples, and it reads the rows of `departure_row` and the paths of
`trace_back` in their former shape: a horizon-long `counts` list per row,
and tuple parent links.  Both are kept here verbatim; only the banned
states of the shared `constraint_setup` are turned back into tuples.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from heapq import heappop, heappush
from typing import Sequence

from mapf_dp.ame import EPS, Constraint, LowLevelFailure, constraint_setup
from mapf_dp.dependency import move_cost
from mapf_dp.model import INF, Instance, Path, Plan


def trace_back(parent: dict[tuple[int, int], tuple[int, int]],
               state: tuple[int, int]) -> list[tuple[int, int]]:
    """The (vertex, index) states from index 0 to `state` along `parent` links."""
    states = [state]
    while state[1] != 0:
        state = parent[state]
        states.append(state)
    states.reverse()
    return states


def departure_row(occ: Plan, v: int,
                  agent: int) -> tuple[list[int], list[int], list[float]]:
    """(counts, xs, best) of vertex v over every labeled path of `occ` but
    `agent`'s, the row that `low_level_search` reads for each state at v.

    counts[x] is the conflict increment of one more agent at (v, x), one per
    path at v at x-1, x and x+1; the last entry holds for every later index.
    xs are the departures from v, the x < X_j with l_j(x) = v, in order;
    best[k] is the largest label at x+1 of the first k (-inf if 0)."""
    paths, end = occ.paths, max((p.last_index for p in occ.paths), default=0) + 1
    counts, xs, best = [0] * (end + 1), [], [-INF]
    for x, j in occ.visits.get(v, ()):
        if j != agent:
            for y in range(max(x - 1, 0), x + 2):
                counts[y] += 1
            xs.append(x)
            best.append(max(best[-1], paths[j].labels[x + 1]))
    for since, j in occ.parked.get(v, ()):
        if j != agent:
            for y in range(max(since - 1, 0), end + 1):
                counts[y] += min(y - since + 2, 3)
    return counts, xs, best


def low_level_search(instance: Instance, agent: int, occupancy: Plan,
                     constraints: Sequence[Constraint], key: float,
                     dist_to_goal: Sequence[float],
                     expansion_cap: int = 200_000) -> tuple[Path, int]:
    """Plan one agent against the fixed labeled paths of the others: those
    that `occupancy` indexes by agent id, minus `agent`'s own, if any.

    Returns (labeled path, expansions).  Phase 1 expands, among queued
    states with f <= key, one with the fewest accumulated path conflicts;
    once no queued state fits the bound the search permanently switches to
    Phase 2 and expands by smallest f.  Raises LowLevelFailure otherwise.
    A successor (v, x) costs one lookup of v's row, which leaves `agent`
    out (`departure_row`), and one bisect for its wait bound.
    """
    spec = instance.agents[agent]
    adjacency = instance.graph.adjacency
    banned, goal_con_max, max_index = constraint_setup(
        instance, agent, constraints, dist_to_goal)
    n = instance.graph.n_vertices
    banned = {(s % n, s // n) for s in banned}
    for j, p in enumerate(occupancy.paths):
        if p.labels is None:
            raise ValueError(f"agent {j}: the low level needs labeled paths")
    rows = {}
    t_move = move_cost(spec.delay_prob)
    h = [d * t_move for d in dist_to_goal]
    bound = key + EPS

    start = (spec.start, 0)
    g: dict[tuple[int, int], float] = {start: 0.0}
    conf: dict[tuple[int, int], int] = {start: departure_row(occupancy, spec.start, agent)[0][0]}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    expanded_g: dict[tuple[int, int], float] = {}

    counter = itertools.count()
    f0 = h[spec.start]
    open_heap = [(f0, 0, spec.start, 0.0, next(counter))]   # (f, -x, v, g, tie)
    focal_heap = []
    if f0 <= bound:
        focal_heap.append((conf[start], f0, 0, spec.start, 0.0, next(counter)))
    phase = 1
    expansions = 0

    while True:
        here = None   # the next queued state whose g is still current
        while here is None:
            if phase == 1 and not focal_heap:
                phase = 2
            heap = focal_heap if phase == 1 else open_heap
            if not heap:
                raise LowLevelFailure("exhausted")
            *_, negx, v, gval, _ = heappop(heap)
            if abs(g.get((v, -negx), INF) - gval) <= 1e-12:
                here = (v, -negx)
        x = here[1]
        if v == spec.goal and x >= goal_con_max:
            states = trace_back(parent, here)
            return Path(tuple(s[0] for s in states), tuple(g[s] for s in states)), expansions
        prev = expanded_g.get(here)
        if prev is not None and abs(prev - gval) <= 1e-12:
            continue   # already expanded at this g
        if expansions >= expansion_cap:
            raise LowLevelFailure("budget")
        expanded_g[here] = gval
        expansions += 1
        nx = x + 1
        if nx > max_index:
            continue
        for nv in (v,) + adjacency[v]:
            succ = (nv, nx)
            if succ in banned:
                continue
            counts, xs, best = rows.get(nv) or rows.setdefault(
                nv, departure_row(occupancy, nv, agent))
            # the others' latest departure from nv at an index below nx - 1
            wait = best[bisect_right(xs, x - 1)]
            g_new = (gval if gval >= wait else wait) + (1.0 if nv == v else t_move)
            if g_new < g.get(succ, INF) - 1e-12:
                g[succ] = g_new
                c = conf[succ] = conf[here] + (counts[nx] if nx < len(counts) else counts[-1])
                parent[succ] = here
                f_new = g_new + h[nv]
                heappush(open_heap, (f_new, -nx, nv, g_new, next(counter)))
                if f_new <= bound:
                    heappush(focal_heap, (c, f_new, -nx, nv, g_new, next(counter)))
