"""Two-level solver for delay-aware multi-agent path finding.

The high level is a conflict tree: pop the node with the smallest
approximate average makespan, pick the earliest conflict in its plan,
and branch by constraining one involved agent per child, replanning
only that agent.  The low level is a focal search with re-expansions
over (vertex, local-state) states whose g-values track the approximate
average entry times of the other agents' stored labels.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .dependency import approximate_average_makespan, compute_labels, move_cost
from .model import (Conflict, ConflictKind, Instance, Occupancy, Path, Plan,
                    enumerate_conflicts, find_earliest_conflict,
                    shortest_path_distances)

EPS = 1e-9


@dataclass(frozen=True)
class Constraint:
    """The vertex of `agent` at local state `index` must differ from `vertex`."""

    agent: int
    vertex: int
    index: int


@dataclass
class SolveLimits:
    time_s: float = 60.0
    high_level_expansions: int = 50_000
    low_level_expansions: int = 200_000
    max_index: Optional[int] = None


@dataclass
class SolveResult:
    status: str                    # "solved" | "no-solution" | "timeout"
    plan: Optional[Plan]
    key: Optional[float] = None    # approximate average makespan of the plan
    high_level_expanded: int = 0
    low_level_expanded: int = 0
    wall_time: float = 0.0
    key_decreases: int = 0         # children whose key dropped below the parent's

    @property
    def solved(self) -> bool:
        return self.status == "solved"


class LowLevelFailure(Exception):
    def __init__(self, cause: str):
        super().__init__(cause)
        self.cause = cause   # "exhausted" | "budget"


def branch_constraints(conflict: Conflict) -> tuple[Constraint, Constraint]:
    v, x = conflict.vertex, conflict.index
    if conflict.kind is ConflictKind.VERTEX:
        return (Constraint(conflict.agent_i, v, x),
                Constraint(conflict.agent_j, v, x))
    return (Constraint(conflict.agent_i, v, x + 1),
            Constraint(conflict.agent_j, v, x))


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


def low_level_search(instance: Instance, agent: int, other_paths: Sequence[Path],
                     constraints: Sequence[Constraint], key: float,
                     dist_to_goal: Sequence[float],
                     expansion_cap: int = 200_000,
                     max_index: Optional[int] = None) -> tuple[Path, int]:
    """Plan one agent against the fixed labeled paths of the others.

    Returns (labeled path, expansions).  Phase 1 expands, among queued
    states with f <= key, one with the fewest accumulated path conflicts;
    once no queued state fits the bound the search permanently switches to
    Phase 2 and expands by smallest f.  Raises LowLevelFailure otherwise.
    """
    spec = instance.agents[agent]
    graph = instance.graph
    banned = {(c.vertex, c.index) for c in constraints if c.agent == agent}
    goal_con_max = max((c.index for c in constraints
                        if c.agent == agent and c.vertex == spec.goal), default=-1)
    if max_index is None:
        con_max = max((c.index for c in constraints if c.agent == agent), default=0)
        max_index = 4 * graph.n_vertices + con_max
    if dist_to_goal[spec.start] == math.inf:
        raise LowLevelFailure("exhausted")
    if (spec.start, 0) in banned:
        raise LowLevelFailure("exhausted")

    others = _OtherAgents(other_paths, agent)
    t_move = move_cost(spec.delay_prob)
    h = [d * t_move for d in dist_to_goal]
    bound = key + EPS

    g: dict[tuple[int, int], float] = {(spec.start, 0): 0.0}
    conf: dict[tuple[int, int], int] = {
        (spec.start, 0): others.conflict_increment(spec.start, 0)}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    expanded_g: dict[tuple[int, int], float] = {}

    counter = itertools.count()
    f0 = h[spec.start]
    open_heap = [(f0, 0, spec.start, 0.0, next(counter))]   # (f, -x, v, g, tie)
    focal_heap = []
    if f0 <= bound:
        focal_heap.append((conf[(spec.start, 0)], f0, 0, spec.start, 0.0, next(counter)))
    phase = 1
    expansions = 0

    def current(v: int, x: int, gval: float) -> bool:
        return abs(g.get((v, x), math.inf) - gval) <= 1e-12

    while True:
        state = None
        if phase == 1:
            while focal_heap:
                c, f, negx, v, gval, _ = heapq.heappop(focal_heap)
                if current(v, -negx, gval):
                    state = (v, -negx, gval)
                    break
            if state is None:
                phase = 2
        if phase == 2:
            while open_heap:
                f, negx, v, gval, _ = heapq.heappop(open_heap)
                if current(v, -negx, gval):
                    state = (v, -negx, gval)
                    break
            if state is None:
                raise LowLevelFailure("exhausted")
        v, x, gval = state
        if v == spec.goal and x >= goal_con_max:
            verts, labels = [], []
            node = (v, x)
            while True:
                verts.append(node[0])
                labels.append(g[node])
                if node[1] == 0:
                    break
                node = parent[node]
            verts.reverse()
            labels.reverse()
            return Path(tuple(verts), tuple(labels)), expansions
        prev = expanded_g.get((v, x))
        if prev is not None and abs(prev - gval) <= 1e-12:
            continue   # already expanded at this g
        if expansions >= expansion_cap:
            raise LowLevelFailure("budget")
        expanded_g[(v, x)] = gval
        expansions += 1
        nx = x + 1
        if nx > max_index:
            continue
        for nv in (v,) + graph.adjacency[v]:
            if (nv, nx) in banned:
                continue
            t_hat = 1.0 if nv == v else t_move
            g_new = max(gval, others.wait_bound(nv, nx)) + t_hat
            if g_new < g.get((nv, nx), math.inf) - 1e-12:
                g[(nv, nx)] = g_new
                conf[(nv, nx)] = conf[(v, x)] + others.conflict_increment(nv, nx)
                parent[(nv, nx)] = (v, x)
                f_new = g_new + h[nv]
                heapq.heappush(open_heap, (f_new, -nx, nv, g_new, next(counter)))
                if f_new <= bound:
                    heapq.heappush(focal_heap,
                                   (conf[(nv, nx)], f_new, -nx, nv, g_new, next(counter)))


@dataclass
class HighLevelNode:
    constraints: frozenset[Constraint]
    plan: Plan
    key: float
    conflict_count: int
    seq: int

    def heap_key(self) -> tuple:
        return (round(self.key, 9), self.conflict_count, self.seq)


def solve_ame(instance: Instance, limits: Optional[SolveLimits] = None,
              recompute_labels: bool = False) -> SolveResult:
    """Find a valid delay-aware plan with small approximate average makespan.

    With recompute_labels=True, all agents' labels are refreshed from the
    partial-order recurrence whenever a node's plan changes (off by default:
    stored labels of unchanged agents stay stale, as in the base algorithm).
    """
    if limits is None:
        limits = SolveLimits()
    t0 = time.monotonic()
    probs = [a.delay_prob for a in instance.agents]
    dists = [shortest_path_distances(instance.graph, a.goal) for a in instance.agents]
    ll_total = 0
    key_decreases = 0

    def out_of_time() -> bool:
        return time.monotonic() - t0 > limits.time_s

    # root: plan agents one by one against the paths planned so far, key 0
    root_paths: list[Path] = []
    for i in range(instance.n_agents):
        try:
            path, exp = low_level_search(
                instance, i, root_paths, (), 0.0, dists[i],
                limits.low_level_expansions, limits.max_index)
        except LowLevelFailure as fail:
            status = "no-solution" if fail.cause == "exhausted" else "timeout"
            return SolveResult(status, None, low_level_expanded=ll_total,
                               wall_time=time.monotonic() - t0)
        ll_total += exp
        root_paths.append(path)
        if out_of_time():
            return SolveResult("timeout", None, low_level_expanded=ll_total,
                               wall_time=time.monotonic() - t0)

    seq = itertools.count()

    def make_node(constraints: frozenset, plan: Plan) -> HighLevelNode:
        nonlocal ll_total
        if recompute_labels:
            plan = compute_labels(plan, probs)
        key = approximate_average_makespan(plan)
        n_conf = len(enumerate_conflicts(plan))
        return HighLevelNode(constraints, plan, key, n_conf, next(seq))

    root = make_node(frozenset(), Plan(tuple(root_paths)))
    heap = [(root.heap_key(), root)]
    hl_expanded = 0

    while heap:
        if out_of_time() or hl_expanded >= limits.high_level_expansions:
            return SolveResult("timeout", None, high_level_expanded=hl_expanded,
                               low_level_expanded=ll_total,
                               wall_time=time.monotonic() - t0,
                               key_decreases=key_decreases)
        _, node = heapq.heappop(heap)
        hl_expanded += 1
        conflict = find_earliest_conflict(node.plan)
        if conflict is None:
            return SolveResult("solved", node.plan, key=node.key,
                               high_level_expanded=hl_expanded,
                               low_level_expanded=ll_total,
                               wall_time=time.monotonic() - t0,
                               key_decreases=key_decreases)
        for con in branch_constraints(conflict):
            child_constraints = node.constraints | {con}
            others = [p for k, p in enumerate(node.plan.paths) if k != con.agent]
            agent_cons = [c for c in child_constraints if c.agent == con.agent]
            try:
                path, exp = low_level_search(
                    instance, con.agent, others, agent_cons, node.key,
                    dists[con.agent], limits.low_level_expansions, limits.max_index)
            except LowLevelFailure:
                continue
            ll_total += exp
            new_paths = list(node.plan.paths)
            new_paths[con.agent] = path
            child = make_node(child_constraints, Plan(tuple(new_paths)))
            if child.key < node.key - EPS:
                key_decreases += 1
            heapq.heappush(heap, (child.heap_key(), child))
    return SolveResult("no-solution", None, high_level_expanded=hl_expanded,
                       low_level_expanded=ll_total,
                       wall_time=time.monotonic() - t0,
                       key_decreases=key_decreases)
