"""Deterministic conflict-based baseline: minimizes the largest path index
assuming perfect execution.  Delay probabilities are ignored entirely.

The low level is AME's `low_level_search` with unit steps.  Its shortest
search (`shortest_path_under_constraints`, key -1) is a pure function of the
agent, its own constraint set (a node holds one per agent) and inputs fixed
for one solve (its distance table and the expansion budget), so
`solve_adapted_cbs` keeps each (agent, own set)'s shortest length for the
solve (the empty set's off the distance table).  Its conflict avoidance
(`fewest_conflicts_path`, key = a max-index bound; Sharon et al. 2015) then
picks, within the node's max-index slack, the path with the fewest conflicts
with the other paths, read off the plan's index, so it runs on every call.

The high level takes the bypass rule of Boyarski et al. (ICAPS 2015; see
`conflict_tree_search`): the first child whose max index is its parent's
and whose plan has fewer conflicts is pushed alone, under its parent's
constraint sets, and its sibling is not planned.  The max index returned
stays optimal; `SolveResult.bypasses` counts those nodes.
"""

from __future__ import annotations

from typing import Collection, Optional, Sequence

from .ame import (LOW_LEVEL_EXPANSIONS, Constraint, LowLevelFailure, SolveLimits,
                  SolveResult, conflict_tree_search, low_level_search)
from .model import INF, Instance, Path, Plan, shortest_path_distances


def shortest_path_under_constraints(
        instance: Instance, agent: int, constraints: Collection[Constraint],
        dist_to_goal: Sequence[float],
        expansion_cap: int = LOW_LEVEL_EXPANSIONS) -> tuple[Path, int]:
    """Time-expanded A* minimizing the final index, ties toward deeper
    states: `low_level_search` with unit steps and key -1, which reads no
    other path.  Returns (path, expansions) or raises LowLevelFailure."""
    return low_level_search(instance, agent, Plan(()), constraints, -1, dist_to_goal,
                            expansion_cap, unit=True)


def fewest_conflicts_path(
        instance: Instance, agent: int, plan: Plan, constraints: Collection[Constraint],
        bound: int, dist_to_goal: Sequence[float],
        expansion_cap: int = LOW_LEVEL_EXPANSIONS) -> tuple[Path, int]:
    """The conflict avoidance of Sharon et al. (2015) within a max-index
    bound: among `agent`'s paths under its own `constraints` that end by
    index `bound`, one with the fewest conflicts with the other paths of
    `plan` (`agent`'s own, if any, is skipped), counted as `path_conflicts`
    counts them; ties toward the smaller final index: `low_level_search`
    with unit steps and key `bound`.  Returns (path, expansions) or raises
    LowLevelFailure."""
    return low_level_search(instance, agent, plan, constraints, bound, dist_to_goal,
                            expansion_cap, unit=True)


def solve_adapted_cbs(instance: Instance,
                      limits: Optional[SolveLimits] = None) -> SolveResult:
    """Conflict-tree search for a valid plan minimizing max_i X_i.

    Nodes pop by max index, then by fewest conflicts, then FIFO.  To replan
    agent j at a node with key K, `planned` memoises j's shortest length L*
    under its own constraint set, the node's entry for it: the shortest
    search ignores the other agents' paths and the key, so its outcome
    depends only on the agent and that set.  `fewest_conflicts_path` then
    finds, on every call, j's path that ends by max(L*, K) with the fewest
    conflicts with the node's other paths (the root plans with K = 0).  A
    repeat of a failed shortest search raises a fresh `LowLevelFailure`
    with the stored cause.  `low_level_expanded` counts the expansions of
    both searches; both take j's hop distances to its goal as heuristic.
    Under the empty set (the root's), L* is read off that table, d from the
    start ("exhausted" if inf), with no search: unconstrained, the search
    expands one state per index and returns at d, below the cap of 4|V|;
    past the budget, the avoidance search, which expands d too, fails.
    """
    dists = [shortest_path_distances(instance.graph, a.goal) for a in instance.agents]
    planned: dict[tuple[int, frozenset[Constraint]], int | str] = {
        (i, frozenset()): "exhausted" if dist[a.start] == INF else dist[a.start]
        for i, (a, dist) in enumerate(zip(instance.agents, dists))}

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

    def evaluate(plan: Plan) -> tuple[Plan, float]:
        return plan, float(plan.max_index)

    return conflict_tree_search(instance, limits or SolveLimits(), dists, replan, evaluate,
                                bypass=True)
