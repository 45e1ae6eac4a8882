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

`run_execution` is one run, the view that `record=True` snapshots and
scripted draws use.  `monte_carlo` runs n_runs runs, run k on its own
generator `run_seed(seed, k)`.  Below its policy's `MC_LOCKSTEP_WORK` runs
x agents it loops over `run_execution`; from there on `LockStep` advances
the runs together as (runs, agents) arrays, in as few blocks, split
evenly, as keep each block's buffer of draws within `MC_BUFFER_BYTES`,
which bounds its memory at any run count.  Both give the same statistics, bit for bit: a
run's draws depend only on its own generator, which it reads in agent
order within a step, one draw per commanded move and none for a wait, so
the lock-step engine replays each run's stream from a per-run buffer and
finds the same outcome.  `run_seeds` derives the runs' seeds by numpy's
SeedSequence hash without a SeedSequence per run, and `fill_draws` fills
the buffers by numpy's MT19937 without a Python call per draw.

Both engines take one pass per time step.  The loop's pass costs about
runs x agents, lock step's a fixed numpy overhead plus a little per run and
agent, so the break-even is a product, and it differs by policy.  Timed
per call, best of 5, on the 23 plans of the benchmark (6 to 35 agents),
lock step ran at these multiples of the loop's speed (median over the
plans, and the range):

    runs x agents  ~160             ~240             ~320             ~480
    mcp            0.80 (0.56-1.61) 1.02 (0.73-1.56) 1.36 (1.02-2.06) 1.60 (1.10-2.71)
    fsp            0.63 (0.35-0.90) 0.89 (0.56-1.31) 0.96 (0.67-1.48) 1.26 (0.91-2.04)
    dummy          0.76 (0.58-1.35) 1.00 (0.77-2.05) 1.25 (0.82-2.53) 1.80 (1.21-3.20)

Plans with fewer agents break even at a smaller product.  Best of 9 on
the benchmark's own calls: mcp with 16 runs gained on the 10- and 15-agent
warehouse plans (0.94x-1.25x at 160, 1.23x-1.43x at 240) and broke even on
the random 14-agent plans with 20 runs (0.76x-1.15x at 280); fsp lost on
every call up to 280 (0.47x-0.96x) and gained at 350 (1.24x); dummy lost on
every call up to 175 and gained at 350 (1.46x).  A 200-run call ran at
2.8x to 4.7x.
"""

from __future__ import annotations

import functools
import math
import random
from collections import deque
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .dependency import MessageSchedule, build_partial_order, message_schedule, transitive_reduction
from .model import Instance, Plan, check_seed

POLICIES = ("mcp", "fsp", "dummy")
# runs x agents of a call from which it runs in lock step, per policy
MC_LOCKSTEP_WORK = {"mcp": 160, "fsp": 320, "dummy": 240}
MC_BUFFER_BYTES = 1 << 22  # most bytes of draws that one lock-step block buffers


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


def check_options(policy: str, latency: int) -> None:
    """The policy and latency rules of `run_execution` and `monte_carlo`."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if latency < 0:
        raise ValueError(f"latency must be >= 0, got {latency}")


def run_execution(instance: Instance, plan: Plan, policy: str, rng,
                  schedule: Optional[MessageSchedule] = None,
                  horizon_cap: Optional[int] = None,
                  latency: int = 0,
                  record: bool = False) -> ExecutionTrace:
    """Execute a plan once under the given policy and seeded rng."""
    check_options(policy, latency)
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


# the constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# the multipliers of generate_state's output words 0 and 1
_OUT_0, _OUT_1 = _INIT_B * _MULT_B & _MASK, _INIT_B * _MULT_B ** 2 & _MASK


def _words(n: int) -> list[int]:
    """The 32-bit words of n >= 0, low first; [0] for 0."""
    out = [n & _MASK]
    while n > _MASK:
        n >>= 32
        out.append(n & _MASK)
    return out


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the hashed value and the next hash constant."""
    next_const = const * _MULT_A & _MASK
    value = (value ^ const) * next_const & _MASK
    return value ^ value >> 16, next_const


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _MASK
    return r ^ r >> 16


@functools.lru_cache(maxsize=64)
def _seed_pool(master_seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool after the master seed's words, padded to the
    pool size of 4, and the hash constant that the spawn key's words go on
    from."""
    entropy = _words(master_seed)
    entropy += [0] * (4 - len(entropy))
    const = _INIT_A
    pool = []
    for word in entropy[:4]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return tuple(pool), const


def run_seeds(master_seed: int, run_indices) -> list[int]:
    """The seed of each run's generator: for run k, word 0 of
    `np.random.SeedSequence(entropy=master_seed, spawn_key=(k,))
    .generate_state(2, np.uint64)`, by the same hash.  Each k folds its
    words into pool words 0 and 1, the two that word 0 reads; its calls for
    pool words 2 and 3 only advance the hash constant."""
    pool, const = _seed_pool(master_seed)
    seeds = []
    for k in run_indices:
        lo, hi, c = pool[0], pool[1], const
        for word in _words(k):
            value, c = _hashmix(word, c)
            lo = _mix(lo, value)
            value, c = _hashmix(word, c)
            hi = _mix(hi, value)
            c = c * _MULT_A ** 2 & _MASK
        lo = (lo ^ _INIT_B) * _OUT_0 & _MASK
        hi = (hi ^ _OUT_0) * _OUT_1 & _MASK
        seeds.append(lo ^ lo >> 16 | (hi ^ hi >> 16) << 32)
    return seeds


def run_seed(master_seed: int, run_index: int) -> random.Random:
    """Counter-split per-run generator, independent of execution order."""
    return random.Random(run_seeds(master_seed, (run_index,))[0])


def fill_draws(row: np.ndarray, seed: int, start: int, mt: np.random.RandomState) -> None:
    """Write draws start, start + 1, … of `random.Random(seed)` into `row`.
    From 2**32 on, `random.seed` and `RandomState.seed` of the seed's
    32-bit words both run MT19937's init_by_array, and `random_sample`
    returns the same doubles as `random.random`, so `mt` fills the row in
    bulk.  numpy seeds a one-word key by init_genrand instead, so a smaller
    seed takes Python's generator."""
    if seed > _MASK:
        mt.seed(np.array(_words(seed), np.uint32))
        row[:] = mt.random_sample(start + len(row))[start:]
    else:
        rng = random.Random(seed)
        row[:] = np.fromiter(iter(rng.random, None), float, start + len(row))[start:]


def check_runs(n_runs: int) -> None:
    """The run-count rule of `monte_carlo`, also `bench`'s `n_runs`."""
    if n_runs < 1:
        raise ValueError(f"need at least one run, got {n_runs}")


class LockStep:
    """A plan's tables for running many executions at once.

    Every table is indexed by agent * L + local state, with L = max X_i + 1
    and each path padded with its goal: the compact vertex id, whether the
    step out of the state moves (and so draws), the undirected edge of that
    move with its direction as the low bit, whether entering the state sends
    a message, and under mcp the (sender, sender state) pairs of
    `MessageSchedule.waits`, padded with (0, 0).  A run that finishes has
    entered every state once, so it has sent `messages`."""

    def __init__(self, instance: Instance, plan: Plan, policy: str,
                 schedule: Optional[MessageSchedule], horizon_cap: int):
        self.policy = policy
        self.horizon_cap = horizon_cap
        m, L = plan.n_agents, plan.max_index + 1
        self.m = m
        self.last = np.array([p.last_index for p in plan.paths])
        self.base = np.arange(m) * L
        padded = np.array([p.vertices + p.vertices[-1:] * (L - len(p.vertices))
                           for p in plan.paths])
        _, vertex = np.unique(padded, return_inverse=True)
        vertex = vertex.reshape(m, L)
        move = np.zeros((m, L), bool)
        move[:, :-1] = vertex[:, 1:] != vertex[:, :-1]
        u, v = vertex[:, :-1][move[:, :-1]], vertex[:, 1:][move[:, :-1]]
        keys, ids = np.unique(np.minimum(u, v) * (m * L) + np.maximum(u, v),
                              return_inverse=True)
        edge = np.zeros((m, L), np.int64)
        edge[move] = 2 * ids.ravel() + (u > v)
        self.vertex, self.move, self.edge = vertex.ravel(), move.ravel(), edge.ravel()
        self.n_slots = 2 * len(keys)

        sends = np.zeros((m, L), np.int64)
        if policy == "fsp":
            sends[:] = m - 1
        elif policy == "mcp":
            for (j, y), recipients in schedule.senders.items():
                sends[j, y] = len(recipients)
            k = max(len(w) for per_x in schedule.waits.values() for w in per_x)
            self.wait_j = np.zeros((m * L, k), np.int64)
            self.wait_y = np.zeros((m * L, k), np.int64)
            for i, per_x in schedule.waits.items():
                for x, w in enumerate(per_x):
                    for n, (j, y) in enumerate(w):
                        self.wait_j[i * L + x, n], self.wait_y[i * L + x, n] = j, y
        entered = (np.arange(L) >= 1) & (np.arange(L) <= self.last[:, None])
        self.messages = int(sends[entered].sum())
        self.sends = (sends > 0).ravel()

        self.delay = np.array([a.delay_prob for a in instance.agents[:m]])
        # draws per run: the mean number of tries of all moves plus two
        # standard deviations, so that few runs refill their buffer, but no
        # more than a run can take: one per agent and step
        moves, q = move.sum(1), 1.0 - self.delay
        mean, var = (moves / q).sum(), (moves * self.delay / q ** 2).sum()
        self.width = min(max(m, math.ceil(mean + 2 * math.sqrt(var))), horizon_cap * m)

    def outcomes(self, seed: int, n_runs: int, latency: int):
        """(status, makespan, messages sent, collisions) of runs 0 … n_runs - 1
        in order, computed in as few blocks as `MC_BUFFER_BYTES` allows."""
        if not self.last.any():
            yield from [("done", 0, 0, 0)] * n_runs
            return
        seeds = run_seeds(seed, range(n_runs))
        n_blocks = -(-n_runs // max(1, MC_BUFFER_BYTES // (8 * self.width)))
        for block in np.array_split(np.arange(n_runs), n_blocks):
            yield from self.run_block([seeds[k] for k in block.tolist()], latency)

    def run_block(self, seeds: list[int], latency: int):
        """The runs on generators `random.Random(seed)` for `seeds`, all
        advanced one step at a time.  Run r takes its draws in agent order
        within a step, through row r of a buffer that holds draws start[r],
        start[r] + 1, … of its stream."""
        R, m, W, horizon_cap = len(seeds), self.m, self.width, self.horizon_cap
        mt = np.random.RandomState(0)
        buf = np.empty((R, W))
        for row, s in zip(buf, seeds):
            fill_draws(row, s, 0, mt)
        start = np.zeros(R, np.int64)           # stream index of each row's first draw
        used = np.zeros(R, np.int64)            # draws taken from each row
        last_sent = np.full(R, -latency - 1)    # step of the latest message
        collisions = np.zeros(R, np.int64)
        makespan = np.full(R, -1)
        deadlock = np.zeros(R, bool)
        stamp = np.zeros(R * self.n_slots, np.int32)   # step + 1 per edge slot crossed
        rows = np.arange(R)                     # the runs still going
        x = np.zeros((R, m), np.int64)          # their local states
        ring = np.zeros((latency + 1, R, m), np.int64)   # their pre-step vectors
        last, base, vertex, pairs = self.last, self.base, self.vertex, np.arange(1, m)
        unseen = len(vertex)                    # above every local state
        fsp, mcp = self.policy == "fsp", self.policy == "mcp"
        for t in range(horizon_cap):
            n = len(rows)
            ring[t % (latency + 1)] = x
            seen = ring[(t - latency) % (latency + 1)] if t >= latency else np.zeros_like(x)
            f = x + base
            go = x < last
            if fsp:
                # two smallest seen states among unfinished agents, for self-exclusion
                s = np.where(seen < last, seen, unseen)
                arg1, ids = s.argmin(1), np.arange(n)
                bound = np.repeat(s[ids, arg1][:, None], m, 1)
                s[ids, arg1] = unseen
                bound[ids, arg1] = s.min(1)
                go &= x <= bound
            elif mcp:
                j = self.wait_j[f] + (np.arange(n) * m)[:, None, None]
                go &= (seen.ravel()[j] >= self.wait_y[f]).all(2)
            tries = go & self.move[f]
            n_tries = tries.sum(1)
            for k in rows[used[rows] + n_tries > W]:
                start[k] += used[k]
                used[k] = 0
                fill_draws(buf[k], seeds[k], start[k], mt)
            first = rows * W + used[rows]
            draw = buf.ravel()[first[:, None] + np.cumsum(tries, 1) - 1]
            used[rows] += n_tries
            step = go & ~(tries & (draw < self.delay))
            x += step
            f_new = f + step
            if latency:
                last_sent[rows[(step & self.sends[f_new]).any(1)]] = t
                dead = ~go.any(1) & (last_sent[rows] < t - latency)
            else:
                dead = ~go.any(1)

            # vertex collisions: pairs of agents on one vertex, from sorted positions
            at = np.sort(vertex[f_new], 1)
            same = at[:, 1:] == at[:, :-1]
            if same.any():
                collisions[rows] += (pairs - np.maximum.accumulate(
                    np.where(same, 0, pairs), 1)).sum(1)
            # edge collisions: an undirected edge crossed both ways in one run
            r, a = np.nonzero(tries & step)
            if len(r) > 1:
                slot = r * self.n_slots + self.edge[f[r, a]]
                stamp[slot] = t + 1
                forward = slot[slot % 2 == 0]
                swapped = forward[stamp[forward + 1] == t + 1]
                if len(swapped):
                    collisions[rows] += np.bincount(np.unique(swapped) // self.n_slots,
                                                    minlength=n)

            done = (x == last).all(1)
            ended = done | dead
            if ended.any():
                makespan[rows[done]] = t + 1
                deadlock[rows[dead]] = True
                keep = ~ended
                rows, x, ring = rows[keep], x[keep], ring[:, keep]
                if not len(rows):
                    break
        for k in range(R):
            if deadlock[k]:
                yield "deadlock", None, None, None
            elif makespan[k] < 0:
                yield "timeout", None, None, int(collisions[k])
            else:
                yield "done", int(makespan[k]), self.messages, int(collisions[k])


def _trace_outcome(trace: ExecutionTrace) -> tuple:
    return trace.status, trace.makespan, trace.messages_sent, len(trace.collisions)


def monte_carlo(instance: Instance, plan: Plan, policy: str, n_runs: int,
                seed: int, horizon_cap: Optional[int] = None,
                latency: int = 0) -> RunStats:
    """Aggregate makespan/collision/message statistics over seeded runs."""
    check_options(policy, latency)
    check_runs(n_runs)
    check_seed(seed)
    if horizon_cap is not None and horizon_cap < 1:
        raise ValueError(f"horizon cap must be >= 1, got {horizon_cap}")
    cap = default_horizon_cap(plan) if horizon_cap is None else horizon_cap
    schedule = mcp_schedule(plan) if policy == "mcp" else None
    if n_runs * plan.n_agents >= MC_LOCKSTEP_WORK[policy]:
        outcomes = LockStep(instance, plan, policy, schedule, cap).outcomes(
            seed, n_runs, latency)
    else:
        outcomes = (_trace_outcome(run_execution(
            instance, plan, policy, random.Random(s), schedule=schedule,
            horizon_cap=cap, latency=latency)) for s in run_seeds(seed, range(n_runs)))
    makespans = []
    collision_counts = []
    messages = 0
    timeouts = 0
    for k, (status, makespan, sent, n_collisions) in enumerate(outcomes):
        if status == "deadlock":
            raise RuntimeError(f"deadlock during {policy} execution (run {k})")
        if status == "timeout":
            timeouts += 1
        else:
            makespans.append(makespan)
            messages = sent
        collision_counts.append(n_collisions)
    if makespans:
        mean, half = stats_ci(makespans)
    else:
        mean, half = math.nan, math.nan
    mean_coll, _ = stats_ci(collision_counts)
    return RunStats(n_runs, mean, half, messages, mean_coll, timeouts, policy)
