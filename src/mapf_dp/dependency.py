"""Execution partial order over local states, its transitive reduction,
the waits of minimal-communication execution, and approximate
average entry-time labels, which one sweep in index order computes exactly
without the partial order (see `compute_labels`).

Nodes of the dependency graph are (agent, index) pairs.  Intra-agent chain
edges (i, x) -> (i, x+1) always exist; an inter-agent edge
(j, x'+1) -> (i, x+1) exists whenever agent j passes through the vertex that
agent i enters at index x+1, at some strictly earlier index x' < x.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .model import Plan

Node = tuple[int, int]  # (agent, local-state index)


class DependencyError(ValueError):
    """Structural problem in a dependency graph (bad edge direction, cycle,
    unknown endpoint)."""


@dataclass
class DependencyGraph:
    nodes: list[Node]
    edges: set[tuple[Node, Node]]
    reduced: bool = False

    @property
    def inter_agent_edges(self) -> set[tuple[Node, Node]]:
        return {(u, v) for u, v in self.edges if u[0] != v[0]}


def build_partial_order(plan: Plan) -> DependencyGraph:
    """Unreduced partial order implied by a valid plan, built from the
    visits (x', j) with x' < X_j of each vertex, in index order, that
    `plan.visits` keeps, the index that validation builds too: one step per
    same-vertex pair.  Validity is a precondition not checked here."""
    nodes = [(i, x) for i, p in enumerate(plan.paths) for x in range(p.last_index + 1)]
    edges: set[tuple[Node, Node]] = set()
    for i, p in enumerate(plan.paths):
        for x in range(p.last_index):
            edges.add(((i, x), (i, x + 1)))
    visits = plan.visits
    for i, pi in enumerate(plan.paths):
        for x in range(1, pi.last_index):   # target (i, x + 1), needs x' < x
            for xp, j in visits.get(pi.vertices[x + 1], ()):
                if xp >= x:
                    break
                if j != i:
                    edges.add(((j, xp + 1), (i, x + 1)))
    return DependencyGraph(nodes, edges, reduced=False)


def transitive_reduction(dg: DependencyGraph) -> DependencyGraph:
    """Unique transitive reduction of a DAG via reachability bitsets, in one
    pass in reverse topological order.

    Every edge must join two of `dg.nodes` and increase the local-state
    index (else DependencyError), so sorting nodes by index gives a
    topological order `order` directly.  Each node visits its out-neighbours
    in `order` position and keeps u -> v unless v is reachable from a
    neighbour visited before it.  That is exact: a neighbour that reaches v
    has a smaller index, so it comes before v in `order`.
    """
    order = sorted(dg.nodes, key=lambda n: n[1])
    pos = {n: k for k, n in enumerate(order)}
    succ: list[list[int]] = [[] for _ in order]   # out-neighbours by position
    for u, v in dg.edges:
        if u not in pos or v not in pos:
            raise DependencyError(f"edge {u} -> {v} leaves the graph's nodes")
        if u[1] >= v[1]:
            raise DependencyError(f"edge {u} -> {v} does not increase the index")
        succ[pos[u]].append(pos[v])
    reach = [0] * len(order)   # bitmask of the positions reachable from k, k included
    kept: set[tuple[Node, Node]] = set()
    for k in reversed(range(len(order))):
        mask = 0   # reached from the out-neighbours visited so far
        for q in sorted(succ[k]):
            if not mask >> q & 1:
                kept.add((order[k], order[q]))
            mask |= reach[q]
        reach[k] = mask | 1 << k
    return DependencyGraph(list(dg.nodes), kept, reduced=True)


def message_schedule(dg: DependencyGraph, plan: Plan) -> dict[int, list[tuple[Node, ...]]]:
    """The waits of a reduced graph, one per inter-agent edge and message:
    waits[i][x] = sorted (j, y) pairs, one per reduced edge (j, y) -> (i, x+1).
    Agent i may leave local state x once it holds j's message from state y,
    sent on entering y, one for each wait naming (j, y).  waits[i][X_i] = ().

    The reduced edges from one agent j to another agent i rise strictly in
    both sender and target state.  Proof: any two of them that cross or share
    a state can be named (j, y1) -> (i, x1) and (j, y2) -> (i, x2) with
    y1 <= y2 and x2 <= x1.  Every edge raises the index, so the reduction
    keeps all chain edges, and (j, y1) ->* (j, y2) -> (i, x2) ->* (i, x1)
    then implies the first edge, which the reduction would have removed.
    Hence i holds k messages from j exactly when j has entered the sender
    state of the k-th edge from j to i.  A graph marked reduced that breaks
    this, or has an edge outside the plan's states, raises DependencyError.
    """
    if not dg.reduced:
        raise DependencyError("message schedule requires a reduced dependency graph")
    waits: dict[int, list[list[Node]]] = {
        i: [[] for _ in range(p.last_index + 1)] for i, p in enumerate(plan.paths)}
    between: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for (j, y), (i, x) in dg.inter_agent_edges:
        if not (0 < x <= plan.paths[i].last_index and 0 < y <= plan.paths[j].last_index):
            raise DependencyError(f"edge ({j},{y}) -> ({i},{x}) is outside the plan")
        waits[i][x - 1].append((j, y))
        between[(j, i)].append((x, y))
    for (j, i), pairs in between.items():
        pairs.sort()
        for (xa, ya), (xb, yb) in zip(pairs, pairs[1:]):
            if ya >= yb or xa == xb:
                raise DependencyError(
                    f"reduced edges ({j},{ya}) -> ({i},{xa}) and ({j},{yb}) -> ({i},{xb}) "
                    "cross or share a state; the graph is not a transitive reduction")
    return {i: [tuple(sorted(w)) for w in per_x] for i, per_x in waits.items()}


def move_cost(delay_prob: float) -> float:
    return 1.0 / (1.0 - delay_prob)


def compute_labels(plan: Plan, delay_probs: Sequence[float]) -> Plan:
    """Approximate average entry-time labels, in one sweep in index order.

    label(i, 0) = 0; label(i, x) = max over all partial-order predecessors of
    their labels, plus 1 for a wait step or 1/(1-p_i) for a move step.
    A departure is (j, x'+1) from vertex l_j(x'), x' < X_j; the sweep keeps
    the largest label of the departures entered so far from each vertex and
    sets label(i, x) = max(label(i, x-1), that at l_i(x) over x' < x-1) + t_hat.
    This equals the recurrence exactly: for j != i those departures are i's
    predecessors on j; labels rise along each path (a float sum with t_hat > 0
    never falls), so i's own departures never exceed label(i, x-1); max is exact.

    The sweep visits the agents longest path first, so the agents still
    moving at index x are a prefix that only shrinks.  The order of agents
    within one index cannot change a float: every label of index x is
    computed before any departure of index x is recorded, and a max does not
    depend on the order of its arguments.  Raises ValueError unless there is
    one delay probability per path.
    """
    paths = plan.paths
    if len(delay_probs) != len(paths):
        raise ValueError(f"{len(delay_probs)} delay probabilities for {len(paths)} paths")
    labels: list[list[float]] = [[0.0] if p.vertices else [] for p in paths]
    # (vertices, labels so far, move cost) of each agent, longest path first
    moving = sorted(((p.vertices, row, move_cost(q))
                     for p, row, q in zip(paths, labels, delay_probs)),
                    key=lambda agent: len(agent[0]), reverse=True)
    departed: dict[int, float] = {}   # vertex -> largest label of its departures
    for x in range(1, len(moving[0][0]) if moving else 0):
        while len(moving[-1][0]) <= x:
            moving.pop()
        entered = []
        for vs, row, t_move in moving:
            u, v = vs[x - 1], vs[x]
            before, wait = row[-1], departed.get(v, 0.0)
            label = (before if before >= wait else wait) + (1.0 if v == u else t_move)
            row.append(label)
            entered.append((u, label))
        for u, label in entered:   # departures (i, x) count from index x + 1 on
            if label > departed.get(u, 0.0):
                departed[u] = label
    return plan.with_labels(labels)


def approximate_average_makespan(labeled_plan: Plan) -> float:
    """max over agents of the label at the last local state."""
    out = 0.0
    for p in labeled_plan.paths:
        if p.labels is None:
            raise ValueError("plan is not labeled")
        out = max(out, p.labels[-1])
    return out


def dependency_stats(plan: Plan) -> dict:
    """Edge counts before/after reduction and the message total, for reports."""
    dg = build_partial_order(plan)
    red = transitive_reduction(dg)
    waits = message_schedule(red, plan)
    return {
        "nodes": len(dg.nodes),
        "edges": len(dg.edges),
        "inter_agent_edges": len(dg.inter_agent_edges),
        "reduced_edges": len(red.edges),
        "reduced_inter_agent_edges": len(red.inter_agent_edges),
        "messages": sum(len(w) for per_x in waits.values() for w in per_x),
    }
