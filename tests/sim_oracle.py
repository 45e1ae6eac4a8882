"""The message-passing simulator as it stood before the lagged-state loop.

Kept verbatim as a test oracle for `mapf_dp.simulate.run_execution`: it
delivers messages from a pending list into per-recipient counts and compares
those counts with cumulative thresholds.  The senders and thresholds are
built here from the reduced graph, with the code the old schedule used for
them, so the oracle reads neither `message_schedule`'s waits nor the send
counts `RunLoop` derives from them.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Optional

from mapf_dp.dependency import build_partial_order, transitive_reduction
from mapf_dp.model import Instance, Plan
from mapf_dp.simulate import (POLICIES, Collision, ExecutionTrace,
                              default_horizon_cap)

GO = True
STOP = False


def oracle_schedule(plan: Plan):
    """(senders, thresholds) of the reduced graph, as the old schedule built them."""
    inter = transitive_reduction(build_partial_order(plan)).inter_agent_edges
    send_map: dict[tuple[int, int], set[int]] = defaultdict(set)
    for (j, y), (i, x) in inter:
        send_map[(j, y)].add(i)
    senders = {n: tuple(sorted(rs)) for n, rs in send_map.items()}
    thresholds = {}
    for i, path in enumerate(plan.paths):
        per_x: list[dict[int, int]] = []
        cum: dict[int, int] = defaultdict(int)
        # incoming message (from (j, y) -> (i, x)) is required before i leaves x - 1
        incoming: dict[int, list[int]] = defaultdict(list)
        for (j, y), (ti, x) in inter:
            if ti == i:
                incoming[x].append(j)
        for x in range(path.last_index + 1):
            for j in incoming.get(x + 1, ()):
                cum[j] += 1
            per_x.append(dict(cum))
        thresholds[i] = per_x
    return senders, thresholds


def step(local: list[int], commands: list[bool], plan: Plan,
         delay_probs: list[float], rng) -> list[int]:
    """Advance each agent per its command; returns indices of advanced agents."""
    advanced = []
    for i, path in enumerate(plan.paths):
        x = local[i]
        if not commands[i] or x == path.last_index:
            continue
        if path.vertices[x] == path.vertices[x + 1]:   # wait never fails
            local[i] = x + 1
            advanced.append(i)
        elif rng.random() >= delay_probs[i]:
            local[i] = x + 1
            advanced.append(i)
    return advanced


def commands_dummy(local: list[int], plan: Plan) -> list[bool]:
    return [x < p.last_index for x, p in zip(local, plan.paths)]


def commands_fsp(local: list[int], delivered: list[int], plan: Plan) -> list[bool]:
    """GO iff every other agent has finished or holds at least x messages sent."""
    last = [p.last_index for p in plan.paths]
    m = len(local)
    # two smallest delivered counts among unfinished senders, for self-exclusion
    lo1 = lo2 = math.inf
    arg1 = -1
    for j in range(m):
        if delivered[j] < last[j]:
            if delivered[j] < lo1:
                lo2, lo1, arg1 = lo1, delivered[j], j
            elif delivered[j] < lo2:
                lo2 = delivered[j]
    cmds = []
    for i in range(m):
        if local[i] >= last[i]:
            cmds.append(STOP)
            continue
        bound = lo2 if arg1 == i else lo1
        cmds.append(local[i] <= bound)
    return cmds


def commands_mcp(local: list[int], received: list[dict[int, int]], plan: Plan,
                 thresholds: list[list[tuple[tuple[int, int], ...]]]) -> list[bool]:
    cmds = []
    for i, path in enumerate(plan.paths):
        x = local[i]
        if x >= path.last_index:
            cmds.append(STOP)
            continue
        ok = all(received[i].get(j, 0) >= need for j, need in thresholds[i][x])
        cmds.append(ok)
    return cmds


def _pack_thresholds(thresholds, plan: Plan):
    packed = []
    for i, path in enumerate(plan.paths):
        per_x = thresholds[i]
        packed.append([tuple(sorted(d.items())) for d in per_x])
    return packed


def run_execution(instance: Instance, plan: Plan, policy: str, rng,
                  horizon_cap: Optional[int] = None,
                  latency: int = 0,
                  record: bool = False) -> ExecutionTrace:
    """Execute a plan once under the given policy and seeded rng."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if isinstance(rng, int):
        rng = random.Random(rng)
    senders, raw_thresholds = oracle_schedule(plan)
    if horizon_cap is None:
        horizon_cap = default_horizon_cap(plan)

    m = plan.n_agents
    last = [p.last_index for p in plan.paths]
    delay = [a.delay_prob for a in instance.agents]
    local = [0] * m
    delivered = [0] * m                         # fsp: broadcasts readable per sender
    received: list[dict[int, int]] = [dict() for _ in range(m)]   # mcp counts
    pending: list[tuple[int, int, tuple[int, ...]]] = []  # (deliver_t, sender, recipients)
    thresholds = _pack_thresholds(raw_thresholds, plan) if policy == "mcp" else None
    messages_sent = 0
    collisions: list[Collision] = []
    snapshots = [tuple(local)] if record else None

    if all(x == lx for x, lx in zip(local, last)):
        return ExecutionTrace("done", 0, 0, [], snapshots)

    t = 0
    while t < horizon_cap:
        if pending:
            still = []
            for dt, sender, recips in pending:
                if dt <= t:
                    delivered[sender] += 1
                    for r in recips:
                        received[r][sender] = received[r].get(sender, 0) + 1
                else:
                    still.append((dt, sender, recips))
            pending = still

        if policy == "fsp":
            cmds = commands_fsp(local, delivered, plan)
        elif policy == "mcp":
            cmds = commands_mcp(local, received, plan, thresholds)
        else:
            cmds = commands_dummy(local, plan)

        if not any(cmds) and not pending:
            return ExecutionTrace("deadlock", None, messages_sent, collisions, snapshots)

        before = list(local)
        advanced = step(local, cmds, plan, delay, rng)

        # vertex collisions: shared occupancy at end of step
        occupancy: dict[int, list[int]] = {}
        for i in range(m):
            occupancy.setdefault(plan.paths[i].vertices[local[i]], []).append(i)
        for v, occupants in occupancy.items():
            if len(occupants) > 1:
                for a in range(len(occupants)):
                    for b in range(a + 1, len(occupants)):
                        collisions.append(
                            Collision(t, "vertex", occupants[a], occupants[b], (v,)))
        # edge collisions: opposite traversal of one edge in the same step
        moves: dict[tuple[int, int], int] = {}
        for i in advanced:
            u = plan.paths[i].vertices[before[i]]
            v = plan.paths[i].vertices[local[i]]
            if u != v:
                moves[(u, v)] = i
        for (u, v), i in moves.items():
            j = moves.get((v, u))
            if j is not None and i < j:
                collisions.append(Collision(t, "edge", i, j, (u, v)))

        if policy != "dummy":
            for j in advanced:
                if policy == "fsp":
                    recips = tuple(k for k in range(m) if k != j)
                else:
                    recips = senders.get((j, local[j]), ())
                if recips:
                    messages_sent += len(recips)
                    pending.append((t + 1 + latency, j, recips))

        t += 1
        if record:
            snapshots.append(tuple(local))
        if all(x == lx for x, lx in zip(local, last)):
            return ExecutionTrace("done", t, messages_sent, collisions, snapshots)

    return ExecutionTrace("timeout", None, messages_sent, collisions, snapshots)
