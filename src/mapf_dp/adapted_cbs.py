"""Deterministic conflict-based baseline: minimizes the largest path index
assuming perfect execution.  Delay probabilities are ignored entirely.

The low level, `shortest_path_under_constraints`, is a pure function of the
agent, its own constraint set (a node holds one per agent) and inputs fixed
for one solve (its distance table and the expansion budget): it reads
neither the other agents' paths nor the parent's key.  So one solve plans
each (agent, own set) once, and `solve_adapted_cbs` keeps the outcomes in a
table that lives as long as the solve.
"""

from __future__ import annotations

import heapq
from typing import Collection, Optional, Sequence

from .ame import (LOW_LEVEL_EXPANSIONS, Constraint, LowLevelFailure, SolveLimits,
                  SolveResult, conflict_tree_search, constraint_setup, trace_back)
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


def solve_adapted_cbs(instance: Instance,
                      limits: Optional[SolveLimits] = None) -> SolveResult:
    """Conflict-tree search for a valid plan minimizing max_i X_i.

    Ties break toward smaller total path length, then FIFO.  The low level
    ignores the other agents' paths and the parent's key, so its outcome
    depends only on the agent and its own constraint set, the node's entry
    for it.  `planned` maps each (agent, set as passed in) to the path found
    for it, or to the cause of its failure; a repeat returns the stored path
    with 0 expansions, or raises a fresh `LowLevelFailure` with the stored
    cause.  So `low_level_expanded` counts the expansions performed, and
    plans and node counts are those of planning every time.
    """
    planned: dict[tuple[int, frozenset[Constraint]], Path | str] = {}

    def replan(instance, agent, plan, constraints, key, dist_to_goal, cap):
        outcome = planned.get((agent, constraints))
        if outcome is None:
            try:
                path, expansions = shortest_path_under_constraints(
                    instance, agent, constraints, dist_to_goal, cap)
            except LowLevelFailure as fail:
                planned[agent, constraints] = fail.cause
                raise
            planned[agent, constraints] = path
            return path, expansions
        if isinstance(outcome, str):
            raise LowLevelFailure(outcome)
        return outcome, 0

    def evaluate(plan: Plan, conflicts) -> tuple[Plan, float, tuple]:
        lengths = [p.last_index for p in plan.paths]
        return plan, float(max(lengths)), (max(lengths), sum(lengths))

    return conflict_tree_search(instance, limits or SolveLimits(), replan, evaluate)
