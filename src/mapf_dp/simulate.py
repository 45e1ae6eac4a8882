"""Discrete-time Monte Carlo execution of plans under GO/STOP policies.

Each step runs synchronously: commands are computed from the state at the
start of the step, moves succeed with probability 1 - p_i (waits always
succeed), and messages emitted on local-state entry become readable at the
next step (plus an optional delivery latency, default 0).

No message is stored.  Agent j sends on entering each local state, and a
message sent in step s is read from step s + 1 + latency on.  So at step t
every agent has read all that j sent up to `seen[j]`, j's local state at
the start of step t - latency (0 before step latency), kept in a ring of
pre-step state vectors.  Comparing `seen` with indices equals counting
messages:

* fsp: j broadcasts on every advance, so i may leave x iff seen[j] >= x
  for every other agent j not seen to finish.
* mcp: i may leave x iff seen[j] >= y for each reduced edge
  (j, y) -> (i, x + 1), listed in `MessageSchedule.waits[i][x]`.  By the
  property proved in `message_schedule`, that is i holding a message from
  j for every reduced edge from j into its states up to x + 1: edges into
  earlier states held when i left them, and seen only grows.

A run deadlocks when no agent is commanded GO and no message was sent in
the last `latency` steps, so none is in flight.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .dependency import MessageSchedule, build_partial_order, message_schedule, transitive_reduction
from .model import Instance, Plan, check_seed

POLICIES = ("mcp", "fsp", "dummy")


@dataclass
class Collision:
    t: int
    kind: str           # "vertex" | "edge"
    agent_i: int
    agent_j: int
    location: tuple     # (v,) for vertex, (u, v) for edge


@dataclass
class ExecutionTrace:
    status: str                      # "done" | "timeout" | "deadlock"
    makespan: Optional[int]
    messages_sent: int
    collisions: list[Collision]
    snapshots: Optional[list[tuple[int, ...]]] = None   # local states per step


@dataclass
class RunStats:
    """Monte Carlo summary.  `messages` is the per-run count of the last
    completed run, the same for every completed mcp or fsp run."""

    n_runs: int
    mean_makespan: float
    ci95: float
    messages: int
    mean_collisions: float
    timeouts: int
    policy: str

    def as_dict(self) -> dict:
        return asdict(self)


def stats_ci(samples) -> tuple[float, float]:
    """Sample mean and 95% half-width 1.96 * s / sqrt(n); zero for n <= 1."""
    xs = list(samples)
    n = len(xs)
    mean = sum(xs) / n
    if n == 1:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, 1.96 * math.sqrt(var) / math.sqrt(n)


def default_horizon_cap(plan: Plan) -> int:
    return max(1000, 50 * plan.max_index)


def mcp_schedule(plan: Plan) -> MessageSchedule:
    return message_schedule(transitive_reduction(build_partial_order(plan)), plan)


def run_execution(instance: Instance, plan: Plan, policy: str, rng,
                  schedule: Optional[MessageSchedule] = None,
                  horizon_cap: Optional[int] = None,
                  latency: int = 0,
                  record: bool = False) -> ExecutionTrace:
    """Execute a plan once under the given policy and seeded rng."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if latency < 0:
        raise ValueError(f"latency must be >= 0, got {latency}")
    if isinstance(rng, int):
        rng = random.Random(rng)
    if policy == "mcp" and schedule is None:
        schedule = mcp_schedule(plan)
    if horizon_cap is None:
        horizon_cap = default_horizon_cap(plan)

    m = plan.n_agents
    verts = [p.vertices for p in plan.paths]
    last = [p.last_index for p in plan.paths]
    delay = [a.delay_prob for a in instance.agents]
    local = [0] * m
    snapshots = [tuple(local)] if record else None
    unfinished = sum(lx > 0 for lx in last)
    if not unfinished:
        return ExecutionTrace("done", 0, 0, [], snapshots)

    fsp, mcp = policy == "fsp", policy == "mcp"
    # sends[i][y]: messages agent i emits on entering local state y
    sends = [[m - 1 if fsp else 0] * (lx + 1) for lx in last]
    if mcp:
        waits = schedule.waits
        for (j, y), recipients in schedule.senders.items():
            sends[j][y] = len(recipients)
    history: deque[list[int]] = deque(maxlen=latency + 1)   # pre-step vectors
    never_seen = [0] * m
    last_sent = -latency - 1          # step of the latest message emitted
    messages_sent = 0
    collisions: list[Collision] = []
    # per-vertex occupancy and the number of vertices holding two or more agents
    occ = [0] * (1 + max(max(p) for p in verts))
    for p in verts:
        occ[p[0]] += 1
    crowded = sum(occ[v] > 1 for v in {p[0] for p in verts})

    t = 0
    while t < horizon_cap:
        history.append(local[:])
        seen = history[0] if len(history) > latency else never_seen
        if fsp:
            # two smallest seen states among unfinished agents, for self-exclusion
            lo1 = lo2 = math.inf
            arg1 = -1
            for j in range(m):
                s = seen[j]
                if s < last[j]:
                    if s < lo1:
                        lo2, lo1, arg1 = lo1, s, j
                    elif s < lo2:
                        lo2 = s
        any_go = False
        moved = []
        for i in range(m):
            x = local[i]
            if x == last[i]:
                continue
            if fsp:
                if x > (lo2 if i == arg1 else lo1):
                    continue
            elif mcp:
                w = waits[i][x]
                if w and not all(seen[j] >= y for j, y in w):
                    continue
            any_go = True
            path = verts[i]
            if path[x] != path[x + 1]:      # a wait never fails
                if rng.random() < delay[i]:
                    continue
                moved.append(i)
            x += 1
            local[i] = x
            if x == last[i]:
                unfinished -= 1
            if sends[i][x]:
                messages_sent += sends[i][x]
                last_sent = t

        if not any_go and last_sent < t - latency:   # no GO, nothing in flight
            return ExecutionTrace("deadlock", None, messages_sent, collisions, snapshots)

        if moved:
            swaps: dict[tuple[int, int], int] = {}
            for i in moved:
                x = local[i]
                u, v = verts[i][x - 1], verts[i][x]
                swaps[(u, v)] = i
                occ[u] -= 1
                if occ[u] == 1:
                    crowded -= 1
                occ[v] += 1
                if occ[v] == 2:
                    crowded += 1
        if crowded:   # full scan, in the order of the agents' first occupancy
            occupancy: dict[int, list[int]] = {}
            for i, x in enumerate(local):
                occupancy.setdefault(verts[i][x], []).append(i)
            collisions.extend(Collision(t, "vertex", a, b, (v,))
                              for v, occupants in occupancy.items()
                              for k, a in enumerate(occupants) for b in occupants[k + 1:])
        if len(moved) > 1:
            # edge collisions: opposite traversal of one edge in the same step
            for (u, v), i in swaps.items():
                j = swaps.get((v, u))
                if j is not None and i < j:
                    collisions.append(Collision(t, "edge", i, j, (u, v)))

        t += 1
        if record:
            snapshots.append(tuple(local))
        if not unfinished:
            return ExecutionTrace("done", t, messages_sent, collisions, snapshots)

    return ExecutionTrace("timeout", None, messages_sent, collisions, snapshots)


def run_seed(master_seed: int, run_index: int) -> random.Random:
    """Counter-split per-run generator, independent of execution order."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,))
    return random.Random(int(ss.generate_state(2, np.uint64)[0]))


def monte_carlo(instance: Instance, plan: Plan, policy: str, n_runs: int,
                seed: int, horizon_cap: Optional[int] = None,
                latency: int = 0) -> RunStats:
    """Aggregate makespan/collision/message statistics over seeded runs."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    check_seed(seed)
    if horizon_cap is not None and horizon_cap < 1:
        raise ValueError(f"horizon cap must be >= 1, got {horizon_cap}")
    schedule = mcp_schedule(plan) if policy == "mcp" else None
    makespans = []
    collision_counts = []
    messages = 0
    timeouts = 0
    for k in range(n_runs):
        trace = run_execution(instance, plan, policy, run_seed(seed, k),
                              schedule=schedule, horizon_cap=horizon_cap,
                              latency=latency)
        if trace.status == "deadlock":
            raise RuntimeError(f"deadlock during {policy} execution (run {k})")
        if trace.status == "timeout":
            timeouts += 1
        else:
            makespans.append(trace.makespan)
            messages = trace.messages_sent
        collision_counts.append(len(trace.collisions))
    if makespans:
        mean, half = stats_ci(makespans)
    else:
        mean, half = math.nan, math.nan
    mean_coll, _ = stats_ci(collision_counts)
    return RunStats(n_runs, mean, half, messages, mean_coll, timeouts, policy)
