"""Core domain model: graphs, instances, plans and plan validity.

A plan is valid when no two agents are ever scheduled at the same vertex
at the same local-state index (vertex rule) and no agent is scheduled at
index x+1 where another agent sits at index x (follow rule).  Both rules
are checked on paths padded with the goal vertex to a common length,
because a finished agent keeps occupying its goal during execution.

Every conflict query goes through one occupancy index of a `Plan` (the
conflict avoidance table of CBS), keyed by vertex: each vertex's (index,
agent) visits below each path's last index, in index order, plus one
"parked at this goal from index X_j on" entry per path, so the goal padding
stays implicit and a query costs the visits at its vertex.  A plan builds
its index on first use, or `Plan.derive_index` patches it from another
plan's built index at the paths that differ, where that costs less; the
conflict-tree driver derives each root prefix's from the one before and
each popped node's from the node popped before it, so a node of a large
plan pays for the paths it changed, not for all of them.  `path_conflicts` finds one path's conflicts with the others
through it, and holds the vertex, follow and parked rules;
`enumerate_conflicts` (and so validation) runs it over a plan's own index,
which `dependency.build_partial_order` reads too.  Each conflict-tree node
holds one plan, which its low level plans against, and finds a child's new
conflicts through its parent's index.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import Optional, Sequence

INF = math.inf
# `Plan.derive_index` patches an index only while at most one agent in
# DERIVE_SPAN differs: a patch moves two paths' entries for each agent that
# differs, at about three times the cost per entry of a fresh build
# (0.35 against 0.13 us on the benchmark's plans, CPython 3.11).
DERIVE_SPAN = 8


def check_seed(seed: int) -> None:
    """The rule of every seeded draw: generators, Monte Carlo and `bench`."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


class MapError(ValueError):
    """Raised for malformed map, agent or plan files."""


class GenerationError(ValueError):
    """Raised when the requested parameters cannot yield a feasible instance."""


def check_agents(m: int) -> None:
    """The agent-count rule of `Instance`, both generators and `bench`."""
    if m < 1:
        raise GenerationError(f"need at least one agent, got {m}")


@dataclass
class GridMeta:
    """Grid provenance of a graph built by `grid_graph`."""

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


def grid_graph(width: int, height: int, free: Sequence[bool]) -> Graph:
    """The 4-neighbor graph of a `width` x `height` grid whose row-major mask
    `free` marks the cells that are not blocked; vertex ids number the free
    cells row by row.  Raises MapError when no cell is free."""
    meta = GridMeta(width, height, tuple(free))
    if meta.n_free == 0:
        raise MapError("map has no free cells")
    edges = []
    for y in range(height):
        for x in range(width):
            if not meta.free[y * width + x]:
                continue
            u = meta.vertex_at(x, y)
            if x + 1 < width and meta.free[y * width + x + 1]:
                edges.append((u, meta.vertex_at(x + 1, y)))
            if y + 1 < height and meta.free[(y + 1) * width + x]:
                edges.append((u, meta.vertex_at(x, y + 1)))
    return Graph.from_edges(meta.n_free, edges, meta)


def parse_map(text: str) -> Graph:
    """Parse an ASCII grid map ('.' free, '@'/'T' blocked) into a 4-neighbor graph.

    An optional first line "WIDTH HEIGHT" is auto-detected and must match the rows.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    head = lines[0].split() if lines else []
    size = None
    if len(head) == 2 and all(tok.isdecimal() for tok in head):
        size, lines = (int(head[0]), int(head[1])), lines[1:]
    if not lines:
        raise MapError("empty map")
    width = len(lines[0])
    if size not in (None, (width, len(lines))):
        raise MapError(f"map header says {size[0]} {size[1]}, but the rows are "
                       f"{width} wide and {len(lines)} high")
    free: list[bool] = []
    for ln in lines:
        if len(ln) != width:
            raise MapError(f"ragged row: expected width {width}, got {len(ln)}")
        unknown = [ch for ch in ln if ch not in ".@T"]
        if unknown:
            raise MapError(f"unknown map character {unknown[0]!r}")
        free += [ch == "." for ch in ln]
    return grid_graph(width, len(lines), free)


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
        check_agents(len(self.agents))
        for k, a in enumerate(self.agents):
            if a.id != k:
                raise ValueError(f"agent at position {k} has id {a.id}; ids must "
                                 "number the agents 0 ... m-1 in order")
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


@dataclass
class Plan:
    """The paths, numbered by agent, and their occupancy index:
    `visits[v]` holds (x, j) for each x < X_j with l_j(x) = v, in order, and
    `parked[v]` holds (X_j, j) for each path j that ends on v, where it
    stays, in agent order.  Both are built on first use, unless
    `derive_index` patched them from another plan's index first or the plan
    came from `with_labels`, which shares its source's.  An index is never
    changed once built, so two indexes may share the lists of the vertices
    where they agree.  `swap(j, path)` is the plan with j's path replaced
    (or appended)."""

    paths: tuple[Path, ...]

    def __post_init__(self):
        self.paths = tuple(self.paths)

    @cached_property
    def visits(self) -> dict[int, list[tuple[int, int]]]:
        visits: dict[int, list[tuple[int, int]]] = {}
        for j, p in enumerate(self.paths):
            for x, v in enumerate(p.vertices[:-1]):
                visits.setdefault(v, []).append((x, j))
        for here in visits.values():
            here.sort()
        return visits

    @cached_property
    def parked(self) -> dict[int, list[tuple[int, int]]]:
        parked: dict[int, list[tuple[int, int]]] = {}
        for j, p in enumerate(self.paths):
            parked.setdefault(p.vertices[-1], []).append((p.last_index, j))
        return parked

    def derive_index(self, source: "Plan") -> None:
        """Build this plan's index from `source`'s, if that is built and this
        one is not, equal to a fresh build: move the entries of each agent
        whose vertex tuple differs by identity (or exists in one plan only),
        and share `source`'s lists at every other vertex.  This plan keeps no
        reference to `source`.  A plan of fewer than `DERIVE_SPAN` paths, or
        one where more than one agent in `DERIVE_SPAN` differs, is left to a
        fresh build on first use, which then costs less."""
        built, old, new = vars(source), source.paths, self.paths
        if "visits" in vars(self) or "visits" not in built or len(new) < DERIVE_SPAN:
            return
        changed = [j for j, (p, q) in enumerate(zip(old, new)) if p.vertices is not q.vertices]
        changed += range(min(len(old), len(new)), max(len(old), len(new)))
        if DERIVE_SPAN * len(changed) > len(new):
            return
        visits: tuple[dict, dict] = ({}, {})   # entries to drop, to add, by vertex
        parked: tuple[dict, dict] = ({}, {})
        for j in changed:
            for side, paths in ((0, old), (1, new)):   # drop the old entries, add the new
                if j < len(paths):
                    vs = paths[j].vertices
                    for x in range(len(vs) - 1):
                        visits[side].setdefault(vs[x], []).append((x, j))
                    parked[side].setdefault(vs[-1], []).append((len(vs) - 1, j))
        self.visits = _patched(built["visits"], *visits, None)
        self.parked = _patched(source.parked, *parked, itemgetter(1))

    def swap(self, j: int, path: Path) -> "Plan":
        return Plan(self.paths[:j] + (path,) + self.paths[j + 1:])

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
        """This plan's paths with one row of `labels` each, and this plan's
        index, if built: the vertices are the same."""
        if len(labels) != len(self.paths):
            raise ValueError(f"{len(labels)} label rows for {len(self.paths)} paths")
        labeled = Plan(tuple(Path(p.vertices, tuple(lb)) for p, lb in zip(self.paths, labels)))
        built = vars(self)
        for name in ("visits", "parked"):
            if name in built:
                setattr(labeled, name, built[name])
        return labeled


def _patched(index: dict[int, list[tuple[int, int]]], drop: dict[int, list[tuple[int, int]]],
             add: dict[int, list[tuple[int, int]]], key) -> dict[int, list[tuple[int, int]]]:
    """A copy of `index` (visits or parked) without the entries of `drop`
    and with those of `add`, both by vertex, each list kept in the order of
    `key`: the vertices in `drop` or `add` get new lists, dropped if empty,
    and every other vertex keeps `index`'s list."""
    out = dict(index)
    for v in drop.keys() | add.keys():
        here = list(index.get(v, ()))
        for e in drop.get(v, ()):
            del here[bisect_left(here, e if key is None else key(e), key=key)]
        for e in add.get(v, ()):
            insort(here, e, key=key)
        if here:
            out[v] = here
        else:
            del out[v]
    return out


class ConflictKind(Enum):
    VERTEX = "vertex"   # same vertex at the same index
    FOLLOW = "follow"   # agent_i at index x+1 where agent_j sits at index x


@dataclass(slots=True)
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

    def pair_key(self) -> tuple:
        """Pair-major, as `validate_plan` reports: (lower id, higher id),
        vertex before follow, index, then follow direction."""
        return (min(self.agent_i, self.agent_j), max(self.agent_i, self.agent_j),
                self.kind is ConflictKind.FOLLOW, self.index, self.agent_i > self.agent_j)


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
    outside = [v for v in vs if not 0 <= v < instance.graph.n_vertices]
    if outside:
        return [f"agent {agent.id}: vertex {outside[0]} is not in the graph"]
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
            if not path.labels[x + 1] >= path.labels[x] + 1 - 1e-9:   # NaN fails too
                errors.append(f"agent {agent.id}: labels increase by < 1 at index {x + 1}")
    return errors


def path_conflicts(plan: Plan, a: int, path: Path, upto: float = INF) -> list[Conflict]:
    """The conflicts between `path`, as agent a's, and the goal-padded path
    of each agent b of `plan` with b != a and b < `upto`; a's own entries in
    `plan`, if any, are skipped.  The one home of the conflict rules: a state
    of a at (v, x) conflicts with b at (v, x) (vertex), at (v, x - 1) (a
    follows b) and at (v, x + 1) (b follows a).  a's states x < X_a meet b's
    visits at x - 1 ... x + 1, one bisect into `visits[v]`, and b's parked
    entry; a parked on its goal from X_a on meets b's visits of that goal
    from index X_a - 1 on.  Precondition: no two paths end on one goal, as
    in every plan of an `Instance`; two agents parked on one goal would meet
    in their parked entries alone, which no query reads."""
    V, F = ConflictKind.VERTEX, ConflictKind.FOLLOW
    visits, parked = plan.visits, plan.parked
    vs = path.vertices
    conflicts = []
    for x in range(len(vs) - 1):
        v = vs[x]
        here = visits.get(v, ())
        for y, b in islice(here, bisect_left(here, (x - 1,)), None):   # b at (v, y)
            if y > x + 1:
                break
            if b != a and b < upto:
                conflicts.append(Conflict(V, min(a, b), max(a, b), v, x) if y == x else
                                 Conflict(F, a, b, v, y) if y < x else Conflict(F, b, a, v, x))
        for since, b in parked.get(v, ()):   # b sits on v from `since` on
            if b != a and b < upto and since <= x + 1:
                if since <= x:
                    conflicts.append(Conflict(V, min(a, b), max(a, b), v, x))
                if since < x:
                    conflicts.append(Conflict(F, a, b, v, x - 1))
                conflicts.append(Conflict(F, b, a, v, x))
    goal, since = vs[-1], len(vs) - 1   # a sits on its goal from `since` on
    here = visits.get(goal, ())
    for x, b in islice(here, bisect_left(here, (since - 1,)), None):
        if b != a and b < upto:
            if since <= x:
                conflicts.append(Conflict(V, min(a, b), max(a, b), goal, x))
            if since < x:
                conflicts.append(Conflict(F, b, a, goal, x - 1))
            conflicts.append(Conflict(F, a, b, goal, x))
    return conflicts


def enumerate_conflicts(plan: Plan) -> list[Conflict]:
    """All vertex/follow violations between goal-padded paths.

    Each pair is found once by `path_conflicts`, from its larger id's side,
    over the plan's own index.  Precondition: no two paths end on one goal.
    It holds for every plan of an `Instance`, which forbids shared goals,
    and `validate_plan` returns on a path that misses its goal before it
    gets here.  The list is unordered: the solvers read its length and its
    minimum by `Conflict.sort_key`.
    """
    conflicts = []
    for a, p in enumerate(plan.paths):
        conflicts += path_conflicts(plan, a, p, upto=a)
    return conflicts


def validate_plan(instance: Instance, plan: Plan) -> ValidationReport:
    """Check well-formedness and both validity rules; return every
    violation, the conflicts ordered by `Conflict.pair_key`."""
    report = ValidationReport()
    if plan.n_agents != instance.n_agents:
        report.path_errors.append(
            f"plan has {plan.n_agents} paths for {instance.n_agents} agents")
        return report
    for agent, path in zip(instance.agents, plan.paths):
        report.path_errors.extend(check_path_wellformed(instance, agent, path))
    if report.path_errors:
        return report
    report.conflicts = sorted(enumerate_conflicts(plan), key=Conflict.pair_key)
    return report


def find_earliest_conflict(plan: Plan, conflicts: Optional[list] = None) -> Optional[Conflict]:
    """The conflict with the smallest larger involved index among `conflicts`
    (by default all of the plan's), or None if there is none.

    Ties broken by vertex-rule before follow-rule, then agent ids, then vertex.
    """
    if conflicts is None:
        conflicts = enumerate_conflicts(plan)
    return min(conflicts, key=Conflict.sort_key, default=None)


def shortest_path_distances(graph: Graph, goal: int) -> list[float]:
    """BFS hop distances from every vertex to goal; math.inf when unreachable.
    One level per round: the unlabeled neighbours of `frontier`, the
    vertices at distance d - 1, get distance d."""
    adjacency = graph.adjacency
    dist: list[float] = [INF] * graph.n_vertices
    dist[goal] = 0
    frontier = [goal]
    d = 0
    while frontier:
        d += 1
        reached = []
        for u in frontier:
            for v in adjacency[u]:
                if dist[v] is INF:
                    dist[v] = d
                    reached.append(v)
        frontier = reached
    return dist
