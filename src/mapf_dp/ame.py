"""Two-level solver for delay-aware multi-agent path finding.

`conflict_tree_search` is the high level that AME and the adapted-CBS
baseline share: pop the node with the smallest key, pick the earliest
conflict in its plan, and branch by constraining one involved agent per
child, replanning only that agent under its own constraint set: a node
holds one set per agent, and a child extends the replanned agent's alone.
Each node holds its `Plan`, and a child's plan is its parent's with the
replanned path swapped in.  A plan's occupancy index is derived when its
node is popped, from the index of the node popped before it, by patching
the paths that differ where that costs less than a fresh build
(`Plan.derive_index`); the root's prefixes derive theirs one from the next.
So no plan waiting in the open list holds an index, or keeps another
plan's alive.  Each node also keeps its plan's
conflicts: a child's are its parent's minus those that name the replanned
agent, plus those of the new path, found through the parent's index, so
only the root enumerates its whole plan.  `solve_ame` keys nodes by the
approximate average makespan.  Its low level is a focal search with
re-expansions over (vertex, local-state) states, keyed by the integer id
x * |V| + v, whose g-values track the approximate average entry times of
the other agents' stored labels; it reads the other agents as the node's
plan minus the replanned one, through two rows per vertex that
`labeled_departure_row` builds once per search: the `departure_row`, its
departures and parked paths, from which `departure_count` reads a conflict
increment only where Phase 1 needs one, and beside it the departures' best
labels.  Its move cost, scaled heuristic and successor tuples are built
once per solve (`low_level_tables`).  Adapted CBS reads the same conflict
rows, which need no labels.  One heap serves both phases of AME's search,
with Phase-2 entries at an infinite conflict count: a state is queued once
per strict improvement of its g, so no two entries are equal and none
carries a tie counter; an entry is current iff its g is the state's g, and
Phase 2 (smallest f first), once begun, is permanent.
"""

from __future__ import annotations

import itertools
import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Collection, Optional, Sequence

from .dependency import approximate_average_makespan, compute_labels, move_cost
from .model import (INF, Conflict, ConflictKind, Instance, Path, Plan,
                    enumerate_conflicts, find_earliest_conflict, path_conflicts,
                    shortest_path_distances)

EPS = 1e-9
LOW_LEVEL_EXPANSIONS = 200_000   # budget of one low-level search, both solvers


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

    def __post_init__(self):
        if not self.time_s > 0:
            raise ValueError(f"time limit must be positive, got {self.time_s}")
        if self.high_level_expansions < 1:
            raise ValueError(f"node limit must be at least 1, got {self.high_level_expansions}")


@dataclass
class SolveResult:
    status: str                    # "solved" | "no-solution" | "timeout"
    plan: Optional[Plan]
    key: Optional[float] = None    # AME: approximate average makespan; adapted CBS: max index
    high_level_expanded: int = 0
    low_level_expanded: int = 0
    wall_time: float = 0.0
    key_decreases: int = 0         # children whose key dropped below the parent's
    bypasses: int = 0              # children pushed under their parent's constraints

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


def carry_conflicts(plan: Plan, conflicts: list[Conflict], j: int, path: Path) -> list[Conflict]:
    """The conflicts of `plan` with j's path replaced by `path`, from
    `conflicts`, those of `plan`: the ones that do not name j, plus those of
    `path` with the other paths, found through `plan`'s index."""
    kept = [c for c in conflicts if c.agent_i != j and c.agent_j != j]
    return kept + path_conflicts(plan, j, path)


def conflict_tree_search(instance: Instance, limits: SolveLimits, replan: Callable,
                         evaluate: Callable[[Plan, list[Conflict]], tuple], *,
                         bypass: bool) -> SolveResult:
    """The conflict tree of CBS (Sharon et al. 2015) over a given low level
    `replan`, with the signature of `low_level_search`, and node key.

    Each node keeps one constraint set per agent, its `Plan`, and a list of
    its plan's conflicts, which equals `enumerate_conflicts` of the plan as a
    multiset.  A popped node's plan derives its index from the plan popped
    before it (`Plan.derive_index`), and each root prefix from the one
    before, so a node pays for the paths that differ, or for a fresh build
    where that is cheaper, and an open node holds no index.  The root, with empty sets, plans agents in id order against
    the paths planned so far (key 0).  A child adds a constraint to agent
    j's set alone, replans j under it against its parent's plan minus j,
    with its parent's key, swaps the new path in and carries its parent's
    conflicts over (`carry_conflicts`).
    `evaluate(plan, conflicts)` returns (plan to store, key, order); it may
    relabel the paths but not move them, so the list stays exact.  Nodes pop
    by smallest order, ties first in, first out.

    With `bypass` (Boyarski et al. 2015), the first child, in branch order,
    whose key is at most its parent's + `EPS` and whose plan has strictly
    fewer conflicts is pushed alone, as a bypass node: the parent's
    constraint tuple with the child's plan, key and conflicts.  No sibling is
    pushed, and a sibling not yet planned is never planned.  The child's new
    path obeys a superset of j's set in the parent and the other paths are
    the parent's, so the plan obeys every set of the parent's tuple: the
    bypass node is a legal node for it, and its carried conflict list is
    exact as for any child.  For adapted CBS the key is the max index, and
    it equals max_i L*_i, the largest over agents i of the shortest length
    of a path under i's set in the node, so it is the smallest max index of
    any plan that obeys the node's sets.  By induction: at the root each
    path is a shortest one.  A child's other paths end by its parent's key,
    which is at most that maximum over the child's sets, since sets only
    grow; its new path ends by max(L*_j, parent's key); and each path is at
    least its own L*_i.  A bypass node holds its parent's sets, and its key,
    at most its parent's and at least the child's maximum over supersets,
    equals its parent's.  So a child's key cannot fall below its parent's,
    every open node's key bounds the plans its sets admit, and as each valid
    plan obeys the sets of some open node, the first solution popped has the
    optimal max index.  The search stays complete: a chain of bypass nodes
    under one tuple lowers the conflict count at each step, so each tuple
    holds finitely many nodes.  AME's key is no such bound; `solve_ame`
    passes `bypass=False`.  A bypass node counts in `high_level_expanded`
    when it is popped, like any node.

    A child whose low level fails is not pushed.  If a failure was the
    budget's, the child's sets may still admit a plan, so a search whose
    open list then empties ends "timeout", not "no-solution"."""
    t0 = time.monotonic()
    dists = [shortest_path_distances(instance.graph, a.goal) for a in instance.agents]
    ll_total = hl_expanded = key_decreases = bypasses = 0

    def result(status: str, plan: Optional[Plan] = None,
               key: Optional[float] = None) -> SolveResult:
        return SolveResult(status, plan, key, hl_expanded, ll_total,
                           time.monotonic() - t0, key_decreases, bypasses)

    def plan_agent(agent: int, plan: Plan, constraints, key: float) -> Path:
        nonlocal ll_total
        path, expansions = replan(instance, agent, plan, constraints, key, dists[agent],
                                  LOW_LEVEL_EXPANSIONS)
        ll_total += expansions
        return path

    plan = Plan(())
    for i in range(instance.n_agents):
        try:
            prefix = plan.swap(i, plan_agent(i, plan, frozenset(), 0.0))
        except LowLevelFailure as fail:
            return result("no-solution" if fail.cause == "exhausted" else "timeout")
        prefix.derive_index(plan)
        plan = prefix
        if time.monotonic() - t0 > limits.time_s:
            return result("timeout")

    seq = itertools.count()
    cut = False   # a child was dropped for its low level's budget
    conflicts = enumerate_conflicts(plan)
    plan, key, order = evaluate(plan, conflicts)
    last = plan   # the plan whose index was built last
    heap = [(order, next(seq), (frozenset(),) * instance.n_agents, plan, key, conflicts)]
    while heap:
        if (time.monotonic() - t0 > limits.time_s
                or hl_expanded >= limits.high_level_expansions):
            return result("timeout")
        _, _, constraints, plan, key, conflicts = heappop(heap)
        hl_expanded += 1
        conflict = find_earliest_conflict(plan, conflicts)
        if conflict is None:
            return result("solved", plan, key)
        plan.derive_index(last)
        last = plan
        children = []
        for con in branch_constraints(conflict):
            j = con.agent
            child_constraints = (*constraints[:j], constraints[j] | {con}, *constraints[j + 1:])
            try:
                path = plan_agent(j, plan, child_constraints[j], key)
            except LowLevelFailure as fail:
                cut = cut or fail.cause == "budget"
                continue
            child_conflicts = carry_conflicts(plan, conflicts, j, path)
            child_plan, child_key, child_order = evaluate(plan.swap(j, path), child_conflicts)
            if child_key < key - EPS:
                key_decreases += 1
            if bypass and child_key <= key + EPS and len(child_conflicts) < len(conflicts):
                bypasses += 1
                children = [(child_order, constraints, child_plan, child_key, child_conflicts)]
                break
            children.append((child_order, child_constraints, child_plan, child_key,
                             child_conflicts))
        for child_order, *child in children:
            heappush(heap, (child_order, next(seq), *child))
    return result("timeout" if cut else "no-solution")


def constraint_setup(instance: Instance, agent: int, constraints: Collection[Constraint],
                     dist_to_goal: Sequence[float]) -> tuple[set[int], int, int]:
    """`agent`'s banned states, as ids x * |V| + v of (vertex v, index x), the
    largest index of a constraint on its goal (-1 if none; the path may end
    only from there on) and the index cap (4|V| plus the largest constrained
    index), from `constraints`, which must all name `agent`.  Raises
    LowLevelFailure("exhausted") if the start cannot reach the goal or is banned."""
    spec = instance.agents[agent]
    n = instance.graph.n_vertices
    banned = {c.index * n + c.vertex for c in constraints}
    goal_con_max = max((c.index for c in constraints if c.vertex == spec.goal), default=-1)
    max_index = 4 * n + max((c.index for c in constraints), default=0)
    if dist_to_goal[spec.start] == math.inf or spec.start in banned:   # (start, 0)
        raise LowLevelFailure("exhausted")
    return banned, goal_con_max, max_index


def trace_back(parent: dict[int, int], state: int, n: int) -> list[int]:
    """The state ids x * n + v from index 0 to `state` along `parent` links;
    `v = id % n` recovers each vertex."""
    states = [state]
    while state >= n:
        state = parent[state]
        states.append(state)
    states.reverse()
    return states


def departure_row(plan: Plan, v: int, agent: int) -> tuple[list[int], list[int]]:
    """(xs, parked) of vertex v over every path of `plan` but `agent`'s: the
    conflict row that both low levels read for each state at v.

    xs are the departures from v, the x < X_j with l_j(x) = v, in order;
    parked holds X_j of each path j that ends on v.  A row costs the visits
    at v; `departure_count` and `parked_count` read conflict increments from
    it, and it needs no labels."""
    xs = [x for x, j in plan.visits.get(v, ()) if j != agent]
    parked = [since for since, j in plan.parked.get(v, ()) if j != agent]
    return xs, parked


def labeled_departure_row(plan: Plan, v: int, agent: int) -> tuple[
        tuple[list[int], list[int]], list[float]]:
    """`departure_row(plan, v, agent)` and, beside it, best over every labeled
    path of `plan` but `agent`'s: best[k] is the largest label at x+1 of the
    first k departures (-inf if 0).  One pass over the visits at v builds
    both, as AME's low level reads them for every vertex it reaches; only it
    reads labels."""
    paths = plan.paths
    xs, best = [], [-INF]
    top = -INF
    for x, j in plan.visits.get(v, ()):
        if j != agent:
            xs.append(x)
            label = paths[j].labels[x + 1]
            if label > top:
                top = label
            best.append(top)
    parked = [since for since, j in plan.parked.get(v, ()) if j != agent]
    return (xs, parked), best


def departure_count(row: tuple[list[int], list[int]], x: int) -> int:
    """The conflict increment of one more agent at (v, x) against `row`, v's
    `departure_row`, for an index x below its path's last: one per path at v
    at x-1, x and x+1.  A departure at y meets x - 1 <= y <= x + 1; a path
    parked since s meets every index from s on, so it counts min(x - s + 2, 3)
    once x >= s - 1."""
    xs, parked = row
    count = bisect_right(xs, x + 1) - bisect_left(xs, x - 1)
    for since in parked:
        if since <= x + 1:
            count += min(x - since + 2, 3)
    return count


def parked_count(row: tuple[list[int], list[int]], since: int) -> int:
    """The conflict increment of one more path that ends on v at index `since`
    and stays there, against `row`, v's `departure_row`: a departure at
    y >= since - 1 counts min(y - since + 2, 3), as `path_conflicts` counts
    a parked agent.  Paths parked on v too are not counted, as there."""
    xs = row[0]
    return sum(min(y - since + 2, 3) for y in xs[bisect_left(xs, since - 1):])


# The tables of `low_level_tables` for the graph searched last: (its
# adjacency, each vertex's successor tuple, agent -> (distance table, delay
# probability, move cost, scaled heuristic)).
_tables: tuple = (None, (), {})


def low_level_tables(instance: Instance, agent: int, dist_to_goal: Sequence[float]) -> tuple[
        float, list[float], tuple[tuple[int, ...], ...]]:
    """(move cost, scaled heuristic, successors) for `agent`'s low level:
    its move cost 1/(1-p), each vertex's distance to its goal times that
    cost, and each vertex's successor tuple, itself (a wait) and then its
    neighbours.  A solve passes one graph and one distance table per agent
    to every call, so the tables are built once per solve and agent: the
    ones built last are kept, and reused only while the graph's adjacency
    and `dist_to_goal` are the very objects they were built from and the
    delay probability is equal, so a result never depends on what ran
    before."""
    global _tables
    adjacency = instance.graph.adjacency
    built, successors, scaled = _tables
    if built is not adjacency:
        successors = tuple((v,) + nbrs for v, nbrs in enumerate(adjacency))
        scaled = {}
        _tables = (adjacency, successors, scaled)
    p = instance.agents[agent].delay_prob
    entry = scaled.get(agent)
    if entry is None or entry[0] is not dist_to_goal or entry[1] != p:
        t_move = move_cost(p)
        entry = scaled[agent] = (dist_to_goal, p, t_move, [d * t_move for d in dist_to_goal])
    return entry[2], entry[3], successors


def low_level_search(instance: Instance, agent: int, plan: Plan,
                     constraints: Collection[Constraint], key: float,
                     dist_to_goal: Sequence[float],
                     expansion_cap: int = LOW_LEVEL_EXPANSIONS) -> tuple[Path, int]:
    """Plan one agent, under its own `constraints`, against the fixed labeled
    paths of the others: `plan`'s, numbered by agent id, minus `agent`'s, if any.

    Returns (labeled path, expansions).  Phase 1 expands, among queued
    states with f <= key, one with the fewest accumulated path conflicts;
    once none is left the search expands by smallest f (Phase 2).  Raises
    LowLevelFailure otherwise.  A state (v, x) has the id x * |V| + v, the
    key of `g`, `parent` and the banned set.  One heap holds both phases: a
    successor of a Phase-1 state with f <= key is queued as (conflicts, f,
    -x, v, g), every other one as (inf, f, -x, v, g), so Phase 2 begins at
    the first pop of an inf entry and is permanent.  A state is queued once
    per strict improvement of its g, so two entries of one state differ in
    g, and entries of two states in (x, v): no two entries are equal, and
    none needs a tie counter.  An entry is current iff its g is `g[state]`.
    A successor (v, x) costs one lookup of v's rows,
    `labeled_departure_row(plan, v, agent)`, built once per search, and one
    bisect for its wait bound; a Phase-1 successor also reads its conflict
    increment (`departure_count`).
    """
    spec = instance.agents[agent]
    n = instance.graph.n_vertices
    banned, goal_con_max, max_index = constraint_setup(
        instance, agent, constraints, dist_to_goal)
    for j, p in enumerate(plan.paths):
        if p.labels is None:
            raise ValueError(f"agent {j}: the low level needs labeled paths")
    rows: list = [None] * n   # (row, its xs, best) of each vertex, built on first read
    t_move, h, successors = low_level_tables(instance, agent, dist_to_goal)
    bound = key + EPS

    g: dict[int, float] = {spec.start: 0.0}   # the id of (start, 0) is start
    parent: dict[int, int] = {}
    f0 = h[spec.start]
    queue = [(departure_count(departure_row(plan, spec.start, agent), 0) if f0 <= bound else INF,
              f0, 0, spec.start, 0.0)]
    expansions = 0

    while queue:
        conflicts, _, negx, v, gval = heappop(queue)
        x = -negx
        here = x * n + v
        if g[here] != gval:
            continue   # stale: g[here] has improved since
        if v == spec.goal and x >= goal_con_max:
            states = trace_back(parent, here, n)
            return Path(tuple(s % n for s in states), tuple(g[s] for s in states)), expansions
        if expansions >= expansion_cap:
            raise LowLevelFailure("budget")
        expansions += 1
        nx = x + 1
        if nx > max_index:
            continue
        base = nx * n   # the id of (vertex 0, index nx)
        for nv in successors[v]:
            succ = base + nv
            if succ in banned:
                continue
            entry = rows[nv]
            if entry is None:
                row, best = labeled_departure_row(plan, nv, agent)
                entry = rows[nv] = (row, row[0], best)
            row, xs, best = entry
            # the others' latest departure from nv at an index below nx - 1
            wait = best[bisect_right(xs, x - 1)]
            g_new = (gval if gval >= wait else wait) + (1.0 if nv == v else t_move)
            if g_new < g.get(succ, INF) - 1e-12:
                g[succ] = g_new
                parent[succ] = here
                f_new = g_new + h[nv]
                if conflicts is not INF and f_new <= bound:   # a Phase-1 state
                    heappush(queue, (conflicts + departure_count(row, nx), f_new, -nx, nv, g_new))
                else:
                    heappush(queue, (INF, f_new, -nx, nv, g_new))
    raise LowLevelFailure("exhausted")


def solve_ame(instance: Instance, limits: Optional[SolveLimits] = None,
              recompute_labels: bool = False) -> SolveResult:
    """Find a valid delay-aware plan with small approximate average makespan.

    With recompute_labels=True, all agents' labels are recomputed by the
    index-order sweep of `compute_labels` whenever a node's plan changes,
    and the node keeps the relabeled plan (off by default: stored labels of
    unchanged agents stay stale, as in the base algorithm).
    """
    probs = [a.delay_prob for a in instance.agents]

    def evaluate(plan: Plan, conflicts: list[Conflict]) -> tuple[Plan, float, tuple]:
        if recompute_labels:
            plan = compute_labels(plan, probs)
        key = approximate_average_makespan(plan)
        return plan, key, (round(key, 9), len(conflicts))

    return conflict_tree_search(instance, limits or SolveLimits(), low_level_search, evaluate,
                                bypass=False)
