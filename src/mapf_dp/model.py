"""Core domain model: graphs, instances, plans and plan validity.

A plan is valid when no two agents are ever scheduled at the same vertex
at the same local-state index (vertex rule) and no agent is scheduled at
index x+1 where another agent sits at index x (follow rule).  Both rules
are checked on paths padded with the goal vertex to a common length,
because a finished agent keeps occupying its goal during execution.

Every conflict query goes through one occupancy index (`Occupancy`, the
conflict avoidance table of CBS): it maps (vertex, index) to the agents
there for indices below each path's last index, plus one "parked at this
goal from index X_j on" entry per path, so the goal padding stays implicit.
Validation, earliest-conflict search and the low level's per-state conflict
counts all read it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Optional, Sequence

INF = math.inf


class MapError(ValueError):
    """Raised for malformed map or agent files."""


@dataclass
class GridMeta:
    """Grid provenance for a graph built from an ASCII map."""

    width: int
    height: int
    free: tuple[bool, ...]  # row-major, one entry per cell

    def __post_init__(self):
        self._cell_vertex: dict[tuple[int, int], int] = {}
        self._vertex_cell: list[tuple[int, int]] = []
        vid = 0
        for y in range(self.height):
            for x in range(self.width):
                if self.free[y * self.width + x]:
                    self._cell_vertex[(x, y)] = vid
                    self._vertex_cell.append((x, y))
                    vid += 1

    def vertex_at(self, x: int, y: int) -> int:
        try:
            return self._cell_vertex[(x, y)]
        except KeyError:
            raise MapError(f"cell ({x}, {y}) is blocked or out of bounds") from None

    def cell_of(self, vertex: int) -> tuple[int, int]:
        return self._vertex_cell[vertex]

    @property
    def n_free(self) -> int:
        return len(self._vertex_cell)


@dataclass
class Graph:
    """Undirected graph with dense integer vertex ids."""

    adjacency: tuple[tuple[int, ...], ...]
    grid: Optional[GridMeta] = None

    def __post_init__(self):
        n = len(self.adjacency)
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if not 0 <= v < n:
                    raise ValueError(f"neighbor {v} of {u} out of range")
                if v == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if u not in self.adjacency[v]:
                    raise ValueError(f"edge {u}-{v} is not symmetric")
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"duplicate neighbors at vertex {u}")

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Sequence[tuple[int, int]],
                   grid: Optional[GridMeta] = None) -> "Graph":
        adj: list[set[int]] = [set() for _ in range(n_vertices)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return cls(tuple(tuple(sorted(s)) for s in adj), grid)

    @property
    def n_vertices(self) -> int:
        return len(self.adjacency)

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]


def parse_map(text: str) -> Graph:
    """Parse an ASCII grid map ('.' free, '@'/'T' blocked) into a 4-neighbor graph.

    An optional first line "WIDTH HEIGHT" is auto-detected and skipped.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if lines:
        head = lines[0].split()
        if len(head) == 2 and all(tok.lstrip("-").isdigit() for tok in head):
            lines = lines[1:]
    if not lines:
        raise MapError("empty map")
    width = len(lines[0])
    free: list[bool] = []
    for ln in lines:
        if len(ln) != width:
            raise MapError(f"ragged row: expected width {width}, got {len(ln)}")
        for ch in ln:
            if ch == ".":
                free.append(True)
            elif ch in ("@", "T"):
                free.append(False)
            else:
                raise MapError(f"unknown map character {ch!r}")
    height = len(lines)
    meta = GridMeta(width, height, tuple(free))
    if meta.n_free == 0:
        raise MapError("map has no free cells")
    edges = []
    for y in range(height):
        for x in range(width):
            if not free[y * width + x]:
                continue
            u = meta.vertex_at(x, y)
            if x + 1 < width and free[y * width + x + 1]:
                edges.append((u, meta.vertex_at(x + 1, y)))
            if y + 1 < height and free[(y + 1) * width + x]:
                edges.append((u, meta.vertex_at(x, y + 1)))
    return Graph.from_edges(meta.n_free, edges, meta)


def serialize_map(graph: Graph) -> str:
    """Inverse of parse_map for grid-backed graphs (includes the size header)."""
    meta = graph.grid
    if meta is None:
        raise MapError("graph carries no grid metadata")
    rows = [f"{meta.width} {meta.height}"]
    for y in range(meta.height):
        rows.append("".join(
            "." if meta.free[y * meta.width + x] else "@" for x in range(meta.width)))
    return "\n".join(rows) + "\n"


@dataclass
class AgentSpec:
    id: int
    start: int
    goal: int
    delay_prob: float

    def __post_init__(self):
        if not 0.0 < self.delay_prob < 1.0:
            raise ValueError(f"delay probability must lie in (0, 1), got {self.delay_prob}")


@dataclass
class Instance:
    graph: Graph
    agents: tuple[AgentSpec, ...]

    def __post_init__(self):
        self.agents = tuple(self.agents)
        n = self.graph.n_vertices
        starts = [a.start for a in self.agents]
        goals = [a.goal for a in self.agents]
        for a in self.agents:
            if not (0 <= a.start < n and 0 <= a.goal < n):
                raise ValueError(f"agent {a.id}: start/goal outside graph")
        if len(set(starts)) != len(starts):
            raise ValueError("start vertices are not pairwise distinct")
        if len(set(goals)) != len(goals):
            raise ValueError("goal vertices are not pairwise distinct")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def check_connectivity(self) -> None:
        for a in self.agents:
            dist = shortest_path_distances(self.graph, a.goal)
            if dist[a.start] == INF:
                raise ValueError(f"agent {a.id}: goal unreachable from start")


@dataclass
class Path:
    """Vertex sequence l(0..X) with optional approximate entry-time labels."""

    vertices: tuple[int, ...]
    labels: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        self.vertices = tuple(self.vertices)
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != len(self.vertices):
                raise ValueError("labels and vertices differ in length")

    @property
    def last_index(self) -> int:
        return len(self.vertices) - 1

    def vertex_padded(self, x: int) -> int:
        return self.vertices[x] if x < len(self.vertices) else self.vertices[-1]


@dataclass
class Plan:
    paths: tuple[Path, ...]

    def __post_init__(self):
        self.paths = tuple(self.paths)

    @property
    def n_agents(self) -> int:
        return len(self.paths)

    @property
    def max_index(self) -> int:
        return max(p.last_index for p in self.paths)

    @property
    def sum_indices(self) -> int:
        return sum(p.last_index for p in self.paths)

    def with_labels(self, labels: Sequence[Sequence[float]]) -> "Plan":
        return Plan(tuple(Path(p.vertices, tuple(lb)) for p, lb in zip(self.paths, labels)))


class ConflictKind(Enum):
    VERTEX = "vertex"   # same vertex at the same index
    FOLLOW = "follow"   # agent_i at index x+1 where agent_j sits at index x


@dataclass
class Conflict:
    kind: ConflictKind
    agent_i: int   # for FOLLOW: the agent entering at index x+1
    agent_j: int   # for FOLLOW: the trailing agent at index x
    vertex: int
    index: int     # x (for FOLLOW this is the trailing agent's index)

    @property
    def larger_index(self) -> int:
        return self.index if self.kind is ConflictKind.VERTEX else self.index + 1

    def sort_key(self) -> tuple:
        kind_rank = 0 if self.kind is ConflictKind.VERTEX else 1
        return (self.larger_index, kind_rank, self.agent_i, self.agent_j, self.vertex)


@dataclass
class ValidationReport:
    conflicts: list[Conflict] = field(default_factory=list)
    path_errors: list[str] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        return not self.conflicts and not self.path_errors


def check_path_wellformed(instance: Instance, agent: AgentSpec, path: Path) -> list[str]:
    errors = []
    vs = path.vertices
    if not vs:
        return [f"agent {agent.id}: empty path"]
    if vs[0] != agent.start:
        errors.append(f"agent {agent.id}: path starts at {vs[0]}, not {agent.start}")
    if vs[-1] != agent.goal:
        errors.append(f"agent {agent.id}: path ends at {vs[-1]}, not {agent.goal}")
    for x in range(len(vs) - 1):
        u, v = vs[x], vs[x + 1]
        if u != v and v not in instance.graph.adjacency[u]:
            errors.append(f"agent {agent.id}: step {x}: {u} and {v} are not adjacent")
    if path.labels is not None:
        if path.labels[0] != 0.0:
            errors.append(f"agent {agent.id}: label at index 0 is {path.labels[0]}, not 0")
        for x in range(len(vs) - 1):
            if path.labels[x + 1] < path.labels[x] + 1 - 1e-9:
                errors.append(f"agent {agent.id}: labels increase by < 1 at index {x + 1}")
    return errors


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


def enumerate_conflicts(plan: Plan) -> list[Conflict]:
    """All vertex/follow violations between goal-padded paths.

    Each path's own states (x < X_a) are looked up in the plan's `Occupancy`,
    whose parked entries stand in for the padding; two agents parked on one
    goal conflict from their parked entries alone.  The order is pair-major:
    (lower id, higher id), vertex before follow, index, then follow direction.
    """
    occ = Occupancy(plan.paths)
    x_max = plan.max_index
    conflicts = []
    for a, p in enumerate(plan.paths):
        for x, v in enumerate(p.vertices[:-1]):
            for b in occ.at[(v, x)]:
                if b > a:
                    conflicts.append(Conflict(ConflictKind.VERTEX, a, b, v, x))
            for b in occ.at.get((v, x - 1), ()):
                if b != a:
                    conflicts.append(Conflict(ConflictKind.FOLLOW, a, b, v, x - 1))
            # b's own pass ends at X_b, so a reports both follow directions
            for since, b in occ.parked.get(v, ()):   # b sits on v from `since` on
                if b != a and since <= x + 1:
                    if since <= x:
                        conflicts.append(
                            Conflict(ConflictKind.VERTEX, min(a, b), max(a, b), v, x))
                    if since < x:
                        conflicts.append(Conflict(ConflictKind.FOLLOW, a, b, v, x - 1))
                    conflicts.append(Conflict(ConflictKind.FOLLOW, b, a, v, x))
    for g, parked in occ.parked.items():   # only plans with shared goals
        for (xa, a), (xb, b) in combinations(parked, 2):
            conflicts += [Conflict(ConflictKind.VERTEX, a, b, g, x)
                          for x in range(max(xa, xb), x_max + 1)]
            conflicts += [Conflict(ConflictKind.FOLLOW, a, b, g, x)
                          for x in range(max(xa - 1, xb), x_max)]
            conflicts += [Conflict(ConflictKind.FOLLOW, b, a, g, x)
                          for x in range(max(xb - 1, xa), x_max)]
    conflicts.sort(key=lambda c: (min(c.agent_i, c.agent_j), max(c.agent_i, c.agent_j),
                                  c.kind is ConflictKind.FOLLOW, c.index,
                                  c.agent_i > c.agent_j))
    return conflicts


def validate_plan(instance: Instance, plan: Plan) -> ValidationReport:
    """Check well-formedness and both validity rules; return every violation."""
    report = ValidationReport()
    if plan.n_agents != instance.n_agents:
        report.path_errors.append(
            f"plan has {plan.n_agents} paths for {instance.n_agents} agents")
        return report
    for agent, path in zip(instance.agents, plan.paths):
        report.path_errors.extend(check_path_wellformed(instance, agent, path))
    if report.path_errors:
        return report
    report.conflicts = enumerate_conflicts(plan)
    return report


def find_earliest_conflict(plan: Plan) -> Optional[Conflict]:
    """The conflict with the smallest larger involved index, or None if valid.

    Ties broken by vertex-rule before follow-rule, then agent ids, then vertex.
    """
    conflicts = enumerate_conflicts(plan)
    if not conflicts:
        return None
    return min(conflicts, key=Conflict.sort_key)


def shortest_path_distances(graph: Graph, goal: int) -> list[float]:
    """BFS hop distances from every vertex to goal; math.inf when unreachable."""
    dist: list[float] = [INF] * graph.n_vertices
    dist[goal] = 0
    q = deque([goal])
    while q:
        u = q.popleft()
        for v in graph.adjacency[u]:
            if dist[v] == INF:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist
