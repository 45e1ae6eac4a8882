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
only the root enumerates its whole plan.  Both solvers share one low level,
`low_level_search`, a time-expanded search over states keyed by the
integer id x * |V| + v, in two cost models: AME's, whose g track the other
agents' stored labels, and adapted CBS's unit steps, which read no labels.
Each solver hands the driver its replan, a node key (`solve_ame`: the
approximate average makespan) and one heuristic table per agent in its low
level's step costs, built once per solve; the driver orders the nodes.
"""

from __future__ import annotations

import itertools
import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import islice
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
    # AME: the approximate average makespan under the labels stored during the
    # search, which may be stale for agents not replanned (`mapfdp solve` prints
    # the relabeled plan's value instead); adapted CBS: the max index
    key: Optional[float] = None
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


def conflict_tree_search(instance: Instance, limits: SolveLimits,
                         heuristics: Sequence[Sequence[float]], replan: Callable,
                         evaluate: Callable[[Plan], tuple[Plan, float]], *,
                         bypass: bool) -> SolveResult:
    """The conflict tree of CBS (Sharon et al. 2015) over a given low level
    `replan`, with the signature of `low_level_search`, and node key.
    `heuristics[i]` is agent i's heuristic table in its low level's step
    costs, built by the solver; each replan of i receives it as `h`.

    Each node keeps one constraint set per agent, its `Plan`, and a list of
    its plan's conflicts, which equals `enumerate_conflicts` of the plan as a
    multiset.  A popped node's plan derives its index from the plan popped
    before it (`Plan.derive_index`), the root's from the last root prefix,
    which a relabeled root shares whole, and each root prefix from the one
    before, so a node pays for the paths that differ, or for a fresh build
    where that is cheaper, and an open node holds no index.  The root, with
    empty sets, plans agents in id order against the paths planned so far
    (key 0).  A child adds a constraint to agent j's set alone, replans j
    under it against its parent's plan minus j, with its parent's key, swaps
    the new path in and carries its parent's conflicts over
    (`carry_conflicts`).
    `evaluate(plan)` returns (plan to store, key); it may relabel the paths
    but not move them, so the list stays exact.  Nodes pop by smallest
    (key rounded to 9 places, conflict count), ties first in, first out.

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
    ll_total = hl_expanded = key_decreases = bypasses = 0

    def result(status: str, plan: Optional[Plan] = None,
               key: Optional[float] = None) -> SolveResult:
        return SolveResult(status, plan, key, hl_expanded, ll_total,
                           time.monotonic() - t0, key_decreases, bypasses)

    def plan_agent(agent: int, plan: Plan, constraints, key: float) -> Path:
        nonlocal ll_total
        path, expansions = replan(instance, agent, plan, constraints, key, heuristics[agent],
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

    def node(constraints, plan: Plan, key: float, conflicts: list[Conflict]) -> tuple:
        return (round(key, 9), len(conflicts)), next(seq), constraints, plan, key, conflicts

    cut = False   # a child was dropped for its low level's budget
    conflicts = enumerate_conflicts(plan)
    last = plan   # the plan whose index was built last
    plan, key = evaluate(plan)
    heap = [node((frozenset(),) * instance.n_agents, plan, key, conflicts)]
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
            child_plan, child_key = evaluate(plan.swap(j, path))
            if child_key < key - EPS:
                key_decreases += 1
            if bypass and child_key <= key + EPS and len(child_conflicts) < len(conflicts):
                bypasses += 1
                children = [node(constraints, child_plan, child_key, child_conflicts)]
                break
            children.append(node(child_constraints, child_plan, child_key, child_conflicts))
        for child in children:
            heappush(heap, child)
    return result("timeout" if cut else "no-solution")


def constraint_setup(instance: Instance, agent: int, constraints: Collection[Constraint],
                     h: Sequence[float]) -> tuple[set[int], int, int]:
    """`agent`'s banned states, as ids x * |V| + v of (vertex v, index x), the
    largest index of a constraint on its goal (-1 if none; the path may end
    only from there on) and the index cap (4|V| plus the largest constrained
    index), from `constraints`, which must all name `agent`.  Raises
    LowLevelFailure("exhausted") if the start is banned or cannot reach the
    goal: its heuristic `h[start]` is inf."""
    spec = instance.agents[agent]
    n = instance.graph.n_vertices
    banned = {c.index * n + c.vertex for c in constraints}
    goal_con_max = max((c.index for c in constraints if c.vertex == spec.goal), default=-1)
    max_index = 4 * n + max((c.index for c in constraints), default=0)
    if h[spec.start] == math.inf or spec.start in banned:   # (start, 0)
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


def labeled_departure_row(plan: Plan, v: int, agent: int) -> tuple[
        list[int], list[int], list[float]]:
    """(xs, since, best) of vertex v over every labeled path of `plan` but
    `agent`'s: the departures from v, the x < X_j with l_j(x) = v, in order,
    X_j of the path j parked on v (inf if none), and best[k], the largest
    label at x+1 of the first k departures (-inf if 0).  One pass over the
    visits at v builds the row, as the low level reads it under labels (AME)
    for every vertex it reaches, on first read; only that cost model reads
    labels.  A vertex no other path visits or ends on gets ([], inf, [-inf])."""
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
    since, j = plan.parked.get(v, (INF, agent))
    return xs, since if j != agent else INF, best


def departure_count(plan: Plan, v: int, agent: int, x: int) -> int:
    """The conflict increment of one more agent at (v, x) against every path
    of `plan` but `agent`'s, for an index x below its path's last: one per
    path at v at x-1, x and x+1.  A departure at y meets x - 1 <= y <= x + 1,
    read off `plan.visits[v]` from one bisect; a path parked since s meets
    every index from s on, so it counts min(x - s + 2, 3) once x >= s - 1.
    The unit-step searches call it, and the AME search for its start state;
    AME's successor loop reads the same count inline, from the bisect that
    also gives the wait bound."""
    count = 0
    here = plan.visits.get(v)
    if here:
        for y, j in islice(here, bisect_left(here, (x - 1,)), None):
            if y > x + 1:
                break
            if j != agent:
                count += 1
    since, j = plan.parked.get(v, (INF, agent))
    if j != agent and since <= x + 1:
        count += min(x - since + 2, 3)
    return count


def parked_count(plan: Plan, v: int, agent: int, since: int) -> int:
    """The conflict increment of one more path that ends on v at index `since`
    and stays there, against every path of `plan` but `agent`'s: a departure
    at y >= since - 1 counts min(y - since + 2, 3), as `path_conflicts`
    counts a parked agent."""
    here = plan.visits.get(v, ())
    return sum(min(y - since + 2, 3)
               for y, j in islice(here, bisect_left(here, (since - 1,)), None) if j != agent)


def low_level_search(instance: Instance, agent: int, plan: Plan,
                     constraints: Collection[Constraint], key: float,
                     h: Sequence[float],
                     expansion_cap: int = LOW_LEVEL_EXPANSIONS, *,
                     unit: bool = False) -> tuple[Path, int]:
    """Plan one agent, under its own `constraints`, against the fixed paths
    of the others: `plan`'s, numbered by agent id, minus `agent`'s, if any.
    Returns (path, expansions) or raises LowLevelFailure.

    `h` is the agent's heuristic table in the cost model's step costs, read
    as given and inf where the goal is unreachable: `solve_ame` passes hop
    distances times the move cost 1/(1-p), adapted CBS hop distances.  A
    state (v, x) has the id x * |V| + v, the key of `g`, `parent` and the
    banned set; its successors are `instance.graph.successors[v]`.  By
    default (AME) g is an approximate entry time, read from the others'
    labels, and the path returned carries it: a wait costs 1 and a move
    1/(1-p) after the wait bound; each successor (v', x + 1) takes one
    bisect, k = bisect_right(xs, x - 1), into the departures xs of its
    vertex's `labeled_departure_row`, built on the vertex's first read and
    kept for the search, whether or not another path reaches the vertex.
    best[k] is its wait bound, and as indices are integers k =
    bisect_left(xs, x), so the same k starts the departures at x ... x + 2
    that a Phase-1 successor counts (`departure_count` at x + 1, inline).
    Under `unit` steps (adapted CBS) g = x, no label is read or returned,
    and no row is built: each count is read straight off `plan.visits` and
    `plan.parked`.  Phase 1 expands, among
    queued states with f <= key, one with the fewest accumulated conflicts
    (`departure_count`); Phase 2 expands by smallest f.  One heap holds both, as (conflicts, f, -x, v, g) and
    (inf, f, -x, v, g), so Phase 2, once begun, is permanent, and when
    g = x both orders reduce to (f, -x, v).  A state is queued once per
    strict improvement of its g, so no two entries are equal and none
    carries a tie counter; an entry is current iff its g is `g[state]`.
    With labels a state is in Phase 1 iff its f <= key and its parent is
    (the start iff its f is).  Outside unit Phase 1, the search returns on
    the goal from its last constrained index on, under `constraint_setup`'s
    index cap.

    Under unit steps g never improves, and a Phase-1 state's increment
    depends on it alone while counts pop in nondecreasing order, so a state
    is queued once, when first reached, with its least count: no entry goes
    stale, and `g` keeps the start alone.  Key -1 is the shortest search,
    all in Phase 2.  A key B >= 0 bounds the final index: Phase 1 alone, the
    conflict avoidance of Sharon et al. (2015).  It drops each successor
    with f > B, as f never falls along a path under hop distances, so B
    alone bounds it: an index cap would cut paths that wait past the cap for
    the other agents.  Reaching the goal from its last constrained index on
    also queues an end entry, (the parent's conflicts plus `parked_count`,
    f, -x, v, inf), which counts the paths that pass the goal later.  It
    follows its state's own entry, and the first one popped is returned:
    the fewest conflicts of any path that ends by B, ties toward the smaller
    final index."""
    start, goal = instance.agents[agent].start, instance.agents[agent].goal
    n = instance.graph.n_vertices
    banned, goal_con_max, max_index = constraint_setup(instance, agent, constraints, h)
    goal_at = goal_con_max   # the goal's pop returns from this index on
    successors = instance.graph.successors
    g: dict[int, float] = {start: 0.0}   # the id of (start, 0) is start
    parent: dict[int, int] = {}
    if unit:
        bound, phase_1 = key, key >= 0
        if phase_1:   # only end entries return, and B bounds the search
            goal_at, max_index = INF, key
    else:
        for j, p in enumerate(plan.paths):
            if j != agent and p.labels is None:
                raise ValueError(f"agent {j}: the low level needs labeled paths")
        t_move = move_cost(instance.agents[agent].delay_prob)
        bound = key + EPS
        phase_1 = h[start] <= bound
        g_get, push = g.get, heappush
        rows: list = [None] * n   # each vertex's labeled row, built on first read
    queue = [(departure_count(plan, start, agent, 0) if phase_1 else INF, h[start], 0, start,
              0.0)]
    if phase_1 and unit and start == goal and goal_con_max < 0:
        queue.append((parked_count(plan, start, agent, 0), h[start], 0, start, INF))
    expansions = 0

    while queue:
        conflicts, _, negx, v, gval = heappop(queue)
        x = -negx
        here = x * n + v
        if not unit and g[here] != gval:
            continue   # stale: g[here] has improved since
        if gval is INF or v == goal and x >= goal_at:
            break   # an end entry, or the goal
        if expansions >= expansion_cap:
            raise LowLevelFailure("budget")
        expansions += 1
        nx = x + 1
        if nx > max_index:
            continue
        base = nx * n   # the id of (vertex 0, index nx)
        if not unit:
            xm1, x2, negnx = x - 1, x + 2, -nx
            # successors with f up to `limit` are Phase-1 states
            limit = bound if conflicts is not INF else -INF
            step = 1.0   # the wait comes first, then the moves at t_move
            for nv in successors[v]:
                succ = base + nv
                if banned and succ in banned:
                    step = t_move
                    continue
                entry = rows[nv]
                if entry is None:
                    entry = rows[nv] = labeled_departure_row(plan, nv, agent)
                xs, since, best = entry
                # the departures from nv below index x: bisect_left(xs, x) too
                k = bisect_right(xs, xm1)
                wait = best[k]   # the others' latest departure from nv at an index below x
                g_new = (gval if gval >= wait else wait) + step
                step = t_move
                old = g_get(succ)
                if old is None or g_new < old - 1e-12:
                    g[succ] = g_new
                    parent[succ] = here
                    f_new = g_new + h[nv]
                    if f_new <= limit:   # a Phase-1 state
                        # `departure_count` at nx: departures at x ... x + 2,
                        # and a path parked since x + 2 or earlier
                        count = conflicts + bisect_right(xs, x2, k) - k
                        if since <= x2:
                            count += min(x2 + 1 - since, 3)
                        push(queue, (count, f_new, negnx, nv, g_new))
                    else:
                        push(queue, (INF, f_new, negnx, nv, g_new))
        elif conflicts is INF:
            for nv in successors[v]:
                succ = base + nv
                if succ in banned or succ in parent:
                    continue
                parent[succ] = here
                heappush(queue, (INF, nx + h[nv], -nx, nv, nx))
        else:
            for nv in successors[v]:
                succ = base + nv
                f_new = nx + h[nv]
                if f_new > bound or succ in banned or succ in parent:
                    continue
                parent[succ] = here
                heappush(queue, (conflicts + departure_count(plan, nv, agent, nx), f_new, -nx,
                                 nv, nx))
                if nv == goal and nx >= goal_con_max:
                    heappush(queue, (conflicts + parked_count(plan, nv, agent, nx), f_new, -nx,
                                     nv, INF))
    else:
        raise LowLevelFailure("exhausted")
    states = trace_back(parent, here, n)
    labels = None if unit else tuple(g[s] for s in states)
    return Path(tuple(s % n for s in states), labels), expansions


def solve_ame(instance: Instance, limits: Optional[SolveLimits] = None,
              recompute_labels: bool = False) -> SolveResult:
    """Find a valid delay-aware plan with small approximate average makespan.

    With recompute_labels=True, all agents' labels are recomputed by the
    index-order sweep of `compute_labels` whenever a node's plan changes,
    and the node keeps the relabeled plan (off by default: stored labels of
    unchanged agents stay stale, as in the base algorithm).  An agent's
    heuristic is its hop distance to its goal times its move cost 1/(1-p).
    """
    probs = [a.delay_prob for a in instance.agents]
    heuristics = [[d * t_move for d in shortest_path_distances(instance.graph, a.goal)]
                  for a, t_move in zip(instance.agents, map(move_cost, probs))]

    def evaluate(plan: Plan) -> tuple[Plan, float]:
        if recompute_labels:
            plan = compute_labels(plan, probs)
        return plan, approximate_average_makespan(plan)

    return conflict_tree_search(instance, limits or SolveLimits(), heuristics,
                                low_level_search, evaluate, bypass=False)
