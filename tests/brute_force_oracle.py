"""Brute-force joint search: the minimal largest path index of tiny
instances, a test oracle for `mapf_dp.adapted_cbs.solve_adapted_cbs`."""

from __future__ import annotations

import itertools
from typing import Optional

from mapf_dp.model import Instance


def brute_force_optimal_makespan(instance: Instance, horizon: int) -> Optional[int]:
    """Minimal max_i X_i over all valid plans, by breadth-first search over
    joint configurations; None when no valid plan exists within the horizon.

    A joint transition must keep all vertices pairwise distinct and no agent
    may enter a vertex another agent occupied before the transition.
    """
    graph = instance.graph
    starts = tuple(a.start for a in instance.agents)
    goals = tuple(a.goal for a in instance.agents)
    if starts == goals:
        return 0
    options = [(v,) + graph.adjacency[v] for v in range(graph.n_vertices)]
    frontier = [starts]
    depths = {starts: 0}
    depth = 0
    while frontier and depth < horizon:
        depth += 1
        nxt = []
        for config in frontier:
            for new in itertools.product(*(options[v] for v in config)):
                if len(set(new)) != len(new):
                    continue   # shared vertex at equal index
                if any(new[i] == config[j]
                       for i in range(len(new)) for j in range(len(new)) if i != j):
                    continue   # following into a just-vacated vertex
                if new == goals:
                    return depth
                if new not in depths:
                    depths[new] = depth
                    nxt.append(new)
        frontier = nxt
    return None
