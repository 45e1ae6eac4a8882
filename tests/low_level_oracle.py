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

Adapted CBS's two former low-level searches are kept verbatim too, as
oracles for its entry points into the one search that replaced them:
`shortest_path_under_constraints`, time-expanded A* that queues each state
once as (f, -x, v), and `fewest_conflicts_path`, the conflict avoidance
that queues (conflicts, f, -x, v, end).  They read the shared
`trace_back` of `mapf_dp.ame`, named through the module here, since this
module keeps a former version under that name.  Their conflict rows are
kept verbatim too, renamed: `conflict_row` is the former per-call row of
`ame.departure_row`, and `row_count` and `row_parked_count` read it as the
former `ame.departure_count` and `ame.parked_count` did, before the unit
search read its counts straight off the plan's index.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from typing import Collection, Optional, Sequence

from mapf_dp import ame
from mapf_dp.ame import (EPS, LOW_LEVEL_EXPANSIONS, Constraint, LowLevelFailure,
                         constraint_setup)
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
    for since, j in [occ.parked[v]] if v in occ.parked else ():
        if j != agent:
            for y in range(max(since - 1, 0), end + 1):
                counts[y] += min(y - since + 2, 3)
    return counts, xs, best


def conflict_row(plan: Plan, v: int, agent: int) -> tuple[list[int], list[int]]:
    """(xs, parked) of vertex v over every path of `plan` but `agent`'s: the
    conflict row that the low level reads, in both cost models, at v.

    xs are the departures from v, the x < X_j with l_j(x) = v, in order;
    parked holds X_j of each path j that ends on v.  A row costs the visits
    at v; `row_count` and `row_parked_count` read conflict increments from
    it, and it needs no labels."""
    xs = [x for x, j in plan.visits.get(v, ()) if j != agent]
    parked = [since for since, j in ([plan.parked[v]] if v in plan.parked else ()) if j != agent]
    return xs, parked


def row_count(row: tuple[list[int], list[int]], x: int) -> int:
    """The conflict increment of one more agent at (v, x) against `row`, v's
    `conflict_row`, for an index x below its path's last: one per path at v
    at x-1, x and x+1.  A departure at y meets x - 1 <= y <= x + 1; a path
    parked since s meets every index from s on, so it counts min(x - s + 2, 3)
    once x >= s - 1."""
    xs, parked = row
    count = bisect_right(xs, x + 1) - bisect_left(xs, x - 1)
    for since in parked:
        if since <= x + 1:
            count += min(x - since + 2, 3)
    return count


def row_parked_count(row: tuple[list[int], list[int]], since: int) -> int:
    """The conflict increment of one more path that ends on v at index `since`
    and stays there, against `row`, v's `conflict_row`: a departure at
    y >= since - 1 counts min(y - since + 2, 3), as `path_conflicts` counts
    a parked agent.  Paths parked on v too are not counted, as there."""
    xs = row[0]
    return sum(min(y - since + 2, 3) for y in xs[bisect_left(xs, since - 1):])


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


def shortest_path_under_constraints(
        instance: Instance, agent: int, constraints: Collection[Constraint],
        dist_to_goal: Sequence[float],
        expansion_cap: int = LOW_LEVEL_EXPANSIONS) -> tuple[Path, int]:
    """Time-expanded A* minimizing the final index; ties toward deeper states.
    Returns (path, expansions) or raises LowLevelFailure.

    A state (v, x) has the id x * |V| + v.  Each state is queued once, when
    it is first reached, as (f, -x, v); entries of two states differ in
    (x, v), so none needs a tie counter."""
    spec = instance.agents[agent]
    adjacency = instance.graph.adjacency
    n = instance.graph.n_vertices
    banned, goal_con_max, max_index = constraint_setup(
        instance, agent, constraints, dist_to_goal)
    parent: dict[int, Optional[int]] = {spec.start: None}   # (start, 0) has id start
    heap = [(dist_to_goal[spec.start], 0, spec.start)]
    expansions = 0
    while heap:
        f, negx, v = heapq.heappop(heap)
        x = -negx
        if v == spec.goal and x >= goal_con_max:
            states = ame.trace_back(parent, x * n + v, n)
            return Path(tuple(s % n for s in states)), expansions
        if expansions >= expansion_cap:
            raise LowLevelFailure("budget")
        expansions += 1
        nx = x + 1
        if nx > max_index:
            continue
        here, base = x * n + v, nx * n
        for nv in (v,) + adjacency[v]:
            succ = base + nv
            if succ in banned or succ in parent:
                continue
            parent[succ] = here
            heapq.heappush(heap, (nx + dist_to_goal[nv], -nx, nv))
    raise LowLevelFailure("exhausted")


def fewest_conflicts_path(
        instance: Instance, agent: int, plan: Plan, constraints: Collection[Constraint],
        bound: int, dist_to_goal: Sequence[float],
        expansion_cap: int = LOW_LEVEL_EXPANSIONS) -> tuple[Path, int]:
    """The conflict avoidance of Sharon et al. (2015) within a max-index
    bound: among `agent`'s paths under its own `constraints` that end by
    index `bound`, one with the fewest conflicts with the other paths of
    `plan` (`agent`'s own, if any, is skipped), counted as `path_conflicts`
    counts them; ties toward the smaller final index.  Returns (path,
    expansions) or raises LowLevelFailure.

    It searches the states (v, x) with x + dist(v) <= `bound`, by fewest
    accumulated conflicts, then f = x + dist(v), then deeper states.  A
    state's count adds `row_count` of its vertex's `conflict_row` to
    its parent's; it depends on the state alone, and counts pop in
    nondecreasing order, so a state is queued once, when it is first reached,
    with its least count.  Reaching the goal from index `goal_con_max` on
    also queues an end entry, whose count is the parent's plus
    `row_parked_count`: the path ends there and stays, and the other paths that
    pass the goal later count too.  The first end entry popped has the fewest
    conflicts of any path.  Entries of two states differ in (x, v), and an
    end entry follows its own state's, so none needs a tie counter."""
    spec = instance.agents[agent]
    goal = spec.goal
    adjacency = instance.graph.adjacency
    n = instance.graph.n_vertices
    banned, goal_con_max, _ = constraint_setup(instance, agent, constraints, dist_to_goal)
    rows: list = [None] * n   # conflict_row of each vertex, built on first read
    rows[spec.start] = conflict_row(plan, spec.start, agent)
    parent: dict[int, Optional[int]] = {spec.start: None}   # (start, 0) has id start
    heap = [(row_count(rows[spec.start], 0), dist_to_goal[spec.start], 0, spec.start,
             False)]
    if spec.start == goal and goal_con_max < 0:
        heap.append((row_parked_count(rows[goal], 0), 0, 0, goal, True))
    expansions = 0
    while heap:
        conflicts, _, negx, v, end = heapq.heappop(heap)
        x = -negx
        here = x * n + v
        if end:
            return Path(tuple(s % n for s in ame.trace_back(parent, here, n))), expansions
        if expansions >= expansion_cap:
            raise LowLevelFailure("budget")
        expansions += 1
        nx = x + 1
        base = nx * n
        for nv in (v,) + adjacency[v]:
            succ = base + nv
            f = nx + dist_to_goal[nv]
            if f > bound or succ in banned or succ in parent:
                continue
            parent[succ] = here
            row = rows[nv]
            if row is None:
                row = rows[nv] = conflict_row(plan, nv, agent)
            heapq.heappush(heap, (conflicts + row_count(row, nx), f, -nx, nv, False))
            if nv == goal and nx >= goal_con_max:
                heapq.heappush(heap, (conflicts + row_parked_count(row, nx), f, -nx, nv, True))
    raise LowLevelFailure("exhausted")
