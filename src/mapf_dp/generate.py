"""Random grid and warehouse instance generators.

Delay probabilities are sampled through the expected per-move duration:
draw t_hat uniformly from (1, t_hat_max) with t_hat_max = 1 / (1 - hi)
and set p = 1 - 1 / t_hat, so a range (0, 1/2) corresponds to t_hat_max = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (INF, AgentSpec, GenerationError, Graph, Instance, check_agents,
                    check_seed, grid_graph, shortest_path_distances)


def check_grid(width: int, height: int, blocked_fraction: float) -> None:
    """The size and blocked-fraction rules of a random grid, also `bench`'s."""
    for name, size in (("width", width), ("height", height)):
        if size < 1:
            raise GenerationError(f"grid {name} must be at least 1, got {size}")
    if not 0.0 <= blocked_fraction <= 1.0:
        raise GenerationError(f"blocked fraction must be in [0, 1], got {blocked_fraction}")


def check_delay_bound(hi: float) -> None:
    """The rule of an upper delay probability, also `bench`'s `p_hi`."""
    if not 0.0 < hi < 1.0:
        raise GenerationError(f"upper delay probability must be in (0, 1), got {hi}")


def _sample_delay_probs(rng: np.random.Generator, m: int, hi: float) -> np.ndarray:
    check_delay_bound(hi)
    t_hat_max = 1.0 / (1.0 - hi)
    t_hat = rng.uniform(1.0, t_hat_max, size=m)
    # uniform(1, t_max) can return exactly 1.0, which would give p = 0
    t_hat = np.maximum(t_hat, 1.0 + 1e-12)
    return 1.0 - 1.0 / t_hat


def _delay_bound(p_range: tuple[float, float]) -> float:
    """`p_range`'s upper bound hi; every delay probability is drawn from (0, hi)."""
    if p_range[0] != 0:
        raise GenerationError(f"the lower delay bound must be 0, got {p_range[0]}")
    return p_range[1]


def _largest_component(graph: Graph) -> list[int]:
    """The largest component's vertices in id order (ties: the smallest
    vertex's), each component those at a finite distance from its first."""
    seen = [False] * graph.n_vertices
    best: list[int] = []
    for s in range(graph.n_vertices):
        if seen[s]:
            continue
        comp = [v for v, d in enumerate(shortest_path_distances(graph, s)) if d != INF]
        for v in comp:
            seen[v] = True
        if len(comp) > len(best):
            best = comp
    return best


def _build_instance(graph: Graph, starts, goals, probs) -> Instance:
    agents = tuple(
        AgentSpec(i, int(s), int(g), float(p))
        for i, (s, g, p) in enumerate(zip(starts, goals, probs))
    )
    return Instance(graph, agents)


def generate_random_instance(width: int, height: int, blocked_fraction: float,
                             m: int, p_range: tuple[float, float],
                             seed: int) -> Instance:
    """Random 4-neighbor grid with uniformly blocked cells and m agents."""
    check_grid(width, height, blocked_fraction)
    check_agents(m)
    hi = _delay_bound(p_range)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    n_cells = width * height
    n_blocked = int(round(blocked_fraction * n_cells))
    blocked = set(rng.choice(n_cells, size=n_blocked, replace=False).tolist())
    graph = grid_graph(width, height, [c not in blocked for c in range(n_cells)])
    comp = _largest_component(graph)
    if len(comp) < m:
        raise GenerationError(
            f"largest free component has {len(comp)} cells, need {m} for starts")
    starts = rng.choice(comp, size=m, replace=False)
    goals = rng.choice(comp, size=m, replace=False)
    probs = _sample_delay_probs(rng, m, hi)
    return _build_instance(graph, starts, goals, probs)


@dataclass
class WarehouseParams:
    """Parametric shelf layout: blocked rectangles in a grid of aisles."""

    shelf_width: int = 4
    shelf_height: int = 2
    shelf_cols: int = 3
    shelf_rows: int = 3
    aisle_width: int = 1
    side_width: int = 3

    @property
    def grid_width(self) -> int:
        inner = self.shelf_cols * self.shelf_width
        if self.shelf_cols > 0:
            inner += (self.shelf_cols - 1) * self.aisle_width
        return 2 * self.side_width + inner

    @property
    def grid_height(self) -> int:
        return (self.shelf_rows * self.shelf_height
                + (self.shelf_rows + 1) * self.aisle_width)


def warehouse_graph(params: WarehouseParams) -> Graph:
    w, h = params.grid_width, params.grid_height
    blocked = set()
    for r in range(params.shelf_rows):
        y0 = params.aisle_width + r * (params.shelf_height + params.aisle_width)
        for c in range(params.shelf_cols):
            x0 = params.side_width + c * (params.shelf_width + params.aisle_width)
            for dy in range(params.shelf_height):
                for dx in range(params.shelf_width):
                    blocked.add((x0 + dx, y0 + dy))
    return grid_graph(w, h, [(x, y) not in blocked for y in range(h) for x in range(w)])


def generate_warehouse_instance(params: WarehouseParams, m: int,
                                p_range: tuple[float, float],
                                seed: int) -> Instance:
    """Warehouse instance: starts on one side corridor, goals on the other."""
    check_agents(m)
    hi = _delay_bound(p_range)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    graph = warehouse_graph(params)
    meta = graph.grid
    comp = _largest_component(graph)   # sorted ids, so row by row
    left = [v for v in comp if meta.cell_of(v)[0] < params.side_width]
    right = [v for v in comp if meta.cell_of(v)[0] >= meta.width - params.side_width]
    if min(len(left), len(right)) < m:
        raise GenerationError(
            f"side corridors hold {len(left)}/{len(right)} cells, need {m}")
    # per-agent travel direction: left-to-right or right-to-left
    eastbound = rng.random(m) < 0.5
    left_pick = rng.choice(left, size=m, replace=False)
    right_pick = rng.choice(right, size=m, replace=False)
    starts = np.where(eastbound, left_pick, right_pick)
    goals = np.where(eastbound, right_pick, left_pick)
    probs = _sample_delay_probs(rng, m, hi)
    return _build_instance(graph, starts, goals, probs)


def sweep_delay_bound(t_hat_max: int) -> float:
    """The upper delay probability 1 - 1/t_hat_max of a t_hat_max sweep
    value; a value below 2 leaves no delay range (or divides by zero)."""
    if t_hat_max < 2:
        raise GenerationError(f"t_hat_max must be at least 2, got {t_hat_max}")
    return 1.0 - 1.0 / t_hat_max


def resample_delays(instance: Instance, hi: float, seed: int) -> Instance:
    """Same layout and start/goal cells, fresh delay probabilities from (0, hi)."""
    check_seed(seed)
    rng = np.random.default_rng(seed)
    probs = _sample_delay_probs(rng, instance.n_agents, hi)
    return _build_instance(instance.graph, [a.start for a in instance.agents],
                           [a.goal for a in instance.agents], probs)


def delay_sweep(base: Instance, t_hat_maxes: Sequence[int],
                seed: int) -> list[tuple[int, Instance]]:
    """One (t_hat_max, instance) pair per sweep value: `base`'s layout and
    start/goal cells with delay probabilities drawn from
    (0, sweep_delay_bound(t_hat_max)), by a generator seeded 7000 + t_hat_max
    above `seed`.  Every value is checked before any draw."""
    bounds = [sweep_delay_bound(t_max) for t_max in t_hat_maxes]
    return [(t_max, resample_delays(base, hi, seed + 7000 + t_max))
            for t_max, hi in zip(t_hat_maxes, bounds)]
