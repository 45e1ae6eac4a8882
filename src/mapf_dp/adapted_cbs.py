"""Deterministic conflict-based baseline: minimizes the largest path index
assuming perfect execution.  Delay probabilities are ignored entirely.

The low level has two searches.  `shortest_path_under_constraints` is a
pure function of the agent, its own constraint set (a node holds one per
agent) and inputs fixed for one solve (its distance table and the expansion
budget), so one solve finds each (agent, own set)'s shortest length once
and `solve_adapted_cbs` keeps it in a table that lives as long as the solve.
`fewest_conflicts_path`, the conflict avoidance of Sharon et al. (2015),
then picks, within the max-index slack of the node, the path with the
fewest conflicts with the other agents' paths; it reads the node's plan and
key, so it runs on every call.

The high level takes the bypass rule of Boyarski et al. (ICAPS 2015; see
`conflict_tree_search`): the first child whose max index is its parent's
and whose plan has fewer conflicts is pushed alone, under its parent's
constraint sets, and its sibling is not planned.  The max index returned
stays optimal; `SolveResult.bypasses` counts those nodes.
"""

from __future__ import annotations

import heapq
from typing import Collection, Optional, Sequence

from .ame import (LOW_LEVEL_EXPANSIONS, Constraint, LowLevelFailure, SolveLimits,
                  SolveResult, conflict_tree_search, constraint_setup, departure_count,
                  departure_row, parked_count, trace_back)
from .model import Instance, Path, Plan


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
            states = trace_back(parent, x * n + v, n)
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
    state's count adds `departure_count` of its vertex's `departure_row` to
    its parent's; it depends on the state alone, and counts pop in
    nondecreasing order, so a state is queued once, when it is first reached,
    with its least count.  Reaching the goal from index `goal_con_max` on
    also queues an end entry, whose count is the parent's plus
    `parked_count`: the path ends there and stays, and the other paths that
    pass the goal later count too.  The first end entry popped has the fewest
    conflicts of any path.  Entries of two states differ in (x, v), and an
    end entry follows its own state's, so none needs a tie counter."""
    spec = instance.agents[agent]
    goal = spec.goal
    adjacency = instance.graph.adjacency
    n = instance.graph.n_vertices
    banned, goal_con_max, _ = constraint_setup(instance, agent, constraints, dist_to_goal)
    rows: list = [None] * n   # departure_row of each vertex, built on first read
    rows[spec.start] = departure_row(plan, spec.start, agent)
    parent: dict[int, Optional[int]] = {spec.start: None}   # (start, 0) has id start
    heap = [(departure_count(rows[spec.start], 0), dist_to_goal[spec.start], 0, spec.start,
             False)]
    if spec.start == goal and goal_con_max < 0:
        heap.append((parked_count(rows[goal], 0), 0, 0, goal, True))
    expansions = 0
    while heap:
        conflicts, _, negx, v, end = heapq.heappop(heap)
        x = -negx
        here = x * n + v
        if end:
            return Path(tuple(s % n for s in trace_back(parent, here, n))), expansions
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
                row = rows[nv] = departure_row(plan, nv, agent)
            heapq.heappush(heap, (conflicts + departure_count(row, nx), f, -nx, nv, False))
            if nv == goal and nx >= goal_con_max:
                heapq.heappush(heap, (conflicts + parked_count(row, nx), f, -nx, nv, True))
    raise LowLevelFailure("exhausted")


def solve_adapted_cbs(instance: Instance,
                      limits: Optional[SolveLimits] = None) -> SolveResult:
    """Conflict-tree search for a valid plan minimizing max_i X_i.

    Nodes pop by max index, then by fewest conflicts, then FIFO.  To replan
    agent j at a node with key K, `planned` memoises j's shortest length L*
    under its own constraint set, the node's entry for it: the shortest
    search ignores the other agents' paths and the key, so its outcome
    depends only on the agent and that set.  `fewest_conflicts_path` then
    finds j's path that ends by max(L*, K) with the fewest conflicts with
    the node's other paths (the root plans with K = 0).  The shortest length
    is memoised; the avoidance search runs per call.  A repeat of a failed
    shortest search raises a fresh `LowLevelFailure` with the stored cause.
    `low_level_expanded` counts the expansions of both searches.
    """
    planned: dict[tuple[int, frozenset[Constraint]], int | str] = {}

    def replan(instance, agent, plan, constraints, key, dist_to_goal, cap):
        shortest = planned.get((agent, constraints))
        expansions = 0
        if shortest is None:
            try:
                path, expansions = shortest_path_under_constraints(
                    instance, agent, constraints, dist_to_goal, cap)
            except LowLevelFailure as fail:
                planned[agent, constraints] = fail.cause
                raise
            shortest = planned[agent, constraints] = path.last_index
        elif isinstance(shortest, str):
            raise LowLevelFailure(shortest)
        path, avoiding = fewest_conflicts_path(instance, agent, plan, constraints,
                                               max(shortest, int(key)), dist_to_goal, cap)
        return path, expansions + avoiding

    def evaluate(plan: Plan, conflicts) -> tuple[Plan, float, tuple]:
        max_index = plan.max_index
        return plan, float(max_index), (max_index, len(conflicts))

    return conflict_tree_search(instance, limits or SolveLimits(), replan, evaluate,
                                bypass=True)
