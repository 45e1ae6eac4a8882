"""Discrete-time Monte Carlo execution of plans under GO/STOP policies.

Each step runs synchronously: commands are computed from the state at the
start of the step, moves succeed with probability 1 - p_i (waits always
succeed), and messages emitted on local-state entry become readable at the
next step (plus an optional delivery latency, default 0).

No message is stored.  Agent j sends on entering each local state, and a
message sent in step s is read from step s + 1 + latency on.  So at step t
every agent has read all that j sent up to `seen[j]`, j's local state at
the start of step t - latency (0 before step latency), the oldest of the
last latency + 1 pre-step state vectors.  Comparing `seen` with indices
equals counting messages:

* fsp: j broadcasts on every advance, so i may leave x iff seen[j] >= x
  for every other agent j not seen to finish.
* mcp: i may leave x iff seen[j] >= y for each (j, y) in the waits
  `mcp_schedule` lists in waits[i][x], one per reduced edge
  (j, y) -> (i, x + 1) and per message j sends on entering y.  Its one
  sweep over the states gives exactly the waits `message_schedule` reads
  off the transitive reduction, so by the property proved there, that is
  i holding a message from j for every reduced edge from j into its states
  up to x + 1: edges into earlier states held when i left them, and seen
  only grows.

A run deadlocks when no agent is commanded GO and no message was sent in
the last `latency` steps, so none is in flight.  From latency = horizon cap
on, no message sent in a run is read before the cap, and none lands, so
both engines run with min(latency, cap): any latency gives the statistics
and traces of the cap, and costs no more memory.

`run_execution` is one run, with the local states of every step, the view
that scripted draws use.  `monte_carlo` runs n_runs runs, run k on its own
generator `run_seed(seed, k)`, on one `RunLoop` per call.  Below its
policy's `MC_LOCKSTEP_WORK` runs x agents, or when every path has a single
state, the loop runs them one by one; from there on `LockStep`, built from the loop's
tables, advances the runs together as (runs, agents) arrays, in as few
blocks, split evenly, as keep each block's buffer of draws within
`MC_BUFFER_BYTES`, which bounds its memory at any run count.  Both give the
same statistics, bit for bit: a run's draws depend only on its own
generator, which it reads in agent order within a step, one draw per
commanded move and none for a wait, so the lock-step engine replays each
run's stream from a per-run buffer and finds the same outcome.  Run k's
generator is `random.Random((seed + 1) * 2**32 + k)`: one stream per run,
whatever the order the runs take, and a seed of at least two 32-bit words,
so `fill_draws` fills the buffers by numpy's MT19937 without a Python call
per draw.

Both engines take one pass per time step.  The loop's pass costs about
the agents it visits, lock step's a fixed numpy overhead plus a little per
run and agent, so the break-even is a product, and it differs by policy.
Timed per call, best of 10, on the 23 plans of the benchmark (6 to 35
agents; a shared 2-vCPU machine, Python 3.11), lock step ran at these
multiples of the loop's speed (median over the plans, and the range):

    runs x agents  ~400             ~480             ~640             ~800
    mcp            1.14 (0.78-1.39) 1.23 (0.91-1.50) 1.42 (1.06-1.75) 1.58 (1.26-1.96)
    fsp            0.86 (0.54-1.23) 0.96 (0.63-1.36) 1.14 (0.71-1.56) 1.29 (0.86-1.73)
    dummy          0.96 (0.69-1.29) 1.12 (0.82-1.42) 1.25 (0.94-1.63) 1.40 (1.12-1.87)

Each threshold is the first product whose median passes 1, but mcp's: at
400 the benchmark's 20-run calls of its two relabeled 20-agent plans ran
1.00x and 0.96x in lock step (1.00x both, best of 21), so mcp's stays at
480.  The benchmark's 150-run calls, of 20 and 10 agents, ran 1.9x to 2.6x
faster in lock step (best of 7).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .dependency import mcp_schedule
from .model import Instance, Plan, check_seed

POLICIES = ("mcp", "fsp", "dummy")
# runs x agents of a call from which it runs in lock step, per policy
MC_LOCKSTEP_WORK = {"mcp": 480, "fsp": 640, "dummy": 480}
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
    snapshots: list[tuple[int, ...]]   # local states per step, from step 0


@dataclass
class RunStats:
    """Monte Carlo summary.  `messages` is the count that one completed run
    sends, the same for every one, whether or not any run completes."""

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
    """Sample mean and 95% half-width 1.96 * s / sqrt(n), zero for n = 1;
    `ValueError` for no sample."""
    xs = list(samples)
    n = len(xs)
    if not n:
        raise ValueError("need at least one sample, got 0")
    mean = sum(xs) / n
    if n == 1:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, 1.96 * math.sqrt(var) / math.sqrt(n)


def default_horizon_cap(plan: Plan) -> int:
    return max(1000, 50 * plan.max_index)


def check_options(policy: str, latency: int, horizon_cap: Optional[int] = None) -> None:
    """The policy, latency and horizon-cap rules of `run_execution` and
    `monte_carlo`."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if latency < 0:
        raise ValueError(f"latency must be >= 0, got {latency}")
    if horizon_cap is not None and horizon_cap < 1:
        raise ValueError(f"horizon cap must be >= 1, got {horizon_cap}")


class RunLoop:
    """A plan's tables for running its executions one at a time: each path's
    vertices, the (from, to) vertices of the step out of each state that
    moves (and so draws), None for a wait, the messages sent on entering
    each state, `messages`, their sum over the states after the first, which
    a completed run has entered once each, and, under mcp, the waits
    `schedule or mcp_schedule(plan)`.
    Without a `schedule`, each loop builds the waits by `mcp_schedule`'s one
    sweep: 6-11% of a 16-run mcp call on the benchmark's AME plans of 10 to
    30 agents (best of 21; a shared 2-vCPU machine, Python 3.11)."""

    def __init__(self, instance: Instance, plan: Plan, policy: str,
                 schedule: Optional[dict] = None):
        if plan.n_agents != len(instance.agents):
            raise ValueError(f"plan has {plan.n_agents} paths for {len(instance.agents)} agents")
        if policy == "mcp" and schedule is None:
            schedule = mcp_schedule(plan)
        self.policy = policy
        self.verts = [p.vertices for p in plan.paths]
        self.last = [p.last_index for p in plan.paths]
        self.delay = [a.delay_prob for a in instance.agents]
        self.edges = [[(u, v) if u != v else None for u, v in zip(p, p[1:])]
                      for p in self.verts]
        # sends[i][y]: messages agent i emits on entering local state y
        self.sends = [[plan.n_agents - 1 if policy == "fsp" else 0] * (lx + 1)
                      for lx in self.last]
        self.messages = (plan.n_agents - 1) * sum(self.last) if policy == "fsp" else 0
        if policy == "mcp":
            self.waits = schedule
            for j, y in (n for per_x in schedule.values() for w in per_x for n in w):
                self.sends[j][y] += 1   # one message per wait that names it
                self.messages += y > 0   # no run enters its first state
        self.n_vertices = 1 + max(max(p) for p in self.verts)

    def run(self, rng, horizon_cap: int, latency: int,
            collisions: Optional[list] = None, snapshots: Optional[list] = None) -> tuple:
        """(status, makespan, messages sent, collisions) of one run on `rng`.
        Each collision is appended to `collisions` and each step's local
        states to `snapshots`, when given.

        Only unfinished agents are visited.  Under fsp an agent at x moves
        only once every other unfinished agent has reached x, so these sit
        on two levels at most, and only the front, the lowest level's
        agents, can move.  The lagged view is an earlier state of the run,
        so its two smallest unfinished states and the first agent at the
        smaller follow from that state's front: the whole front goes when
        the view's lowest level is the front's, else at most the view's
        first agent, if it is in the front and nobody else is seen behind."""
        verts, last, delay, edges, sends = self.verts, self.last, self.delay, self.edges, self.sends
        fsp, mcp = self.policy == "fsp", self.policy == "mcp"
        waits = self.waits if mcp else None
        draw = rng.random
        local = [0] * len(last)
        active = [i for i, lx in enumerate(last) if lx]   # the unfinished agents
        unfinished = len(active)
        if not unfinished:
            return "done", 0, 0, 0
        level, front, ahead = 0, active, []   # fsp: the front's level, the rest
        history: deque = deque(maxlen=latency + 1)   # pre-step views
        last_sent = -latency - 1          # step of the latest message emitted
        messages_sent = n_collisions = 0
        # per-vertex occupancy, the number of agent pairs sharing a vertex,
        # and the step + 1 in which each vertex was last left
        occ = [0] * self.n_vertices
        left = [0] * self.n_vertices
        pairs = 0
        for p in verts:
            pairs += occ[p[0]]
            occ[p[0]] += 1

        t = 0
        while t < horizon_cap:
            if fsp:
                # lo1, arg1, lo2: the lowest level, its first agent, the next state
                history.append((level, front[0], level if len(front) > 1
                                else level + 1 if ahead else math.inf))
                lo1, arg1, lo2 = history[0]
                if lo1 == level:
                    go = front
                elif lo2 >= level and local[arg1] == level < last[arg1]:
                    go = (arg1,)
                else:
                    go = ()
            else:
                go = active
                if mcp:
                    history.append(local[:])
                    seen = history[0]
            any_go = not mcp and bool(go)   # fsp and dummy visit GO agents only
            finished = crossed = False
            moved = []
            stamp = t + 1
            for i in go:
                x = local[i]
                if mcp:
                    blocked = False
                    for j, y in waits[i][x]:
                        if seen[j] < y:
                            blocked = True
                            break
                    if blocked:
                        continue
                    any_go = True
                e = edges[i][x]
                if e:                           # a wait never fails
                    if draw() < delay[i]:
                        continue
                    u, v = e
                    occ[u] -= 1
                    pairs += occ[v] - occ[u]
                    occ[v] += 1
                    # an agent that enters a vertex left in this step may swap
                    if left[v] == stamp:
                        crossed = True
                    left[u] = stamp
                    moved.append(i)
                x += 1
                local[i] = x
                if x == last[i]:
                    unfinished -= 1
                    finished = True
                elif fsp:
                    ahead.append(i)
                if n := sends[i][x]:
                    messages_sent += n
                    last_sent = t

            if not any_go and last_sent < t - latency:   # no GO, nothing in flight
                return "deadlock", None, messages_sent, n_collisions
            if fsp and any_go:
                front = [i for i in front if local[i] == level]
                if not front and ahead:
                    level, front, ahead = level + 1, sorted(ahead), []
            elif finished:
                active = [i for i in active if local[i] < last[i]]

            if pairs:
                n_collisions += pairs
                if collisions is not None:
                    # in the order of the agents' first occupancy
                    occupancy: dict[int, list[int]] = {}
                    for i, x in enumerate(local):
                        occupancy.setdefault(verts[i][x], []).append(i)
                    collisions.extend(Collision(t, "vertex", a, b, (v,))
                                      for v, occupants in occupancy.items()
                                      for k, a in enumerate(occupants)
                                      for b in occupants[k + 1:])
            if crossed:
                # edge collisions: opposite traversal of one edge in the same step
                swaps = {edges[i][local[i] - 1]: i for i in moved}
                for (u, v), i in swaps.items():
                    j = swaps.get((v, u))
                    if j is not None and i < j:
                        n_collisions += 1
                        if collisions is not None:
                            collisions.append(Collision(t, "edge", i, j, (u, v)))

            t = stamp
            if snapshots is not None:
                snapshots.append(tuple(local))
            if not unfinished:
                return "done", t, messages_sent, n_collisions

        return "timeout", None, messages_sent, n_collisions


def run_execution(instance: Instance, plan: Plan, policy: str, rng,
                  schedule: Optional[dict] = None,
                  horizon_cap: Optional[int] = None,
                  latency: int = 0) -> ExecutionTrace:
    """Execute a plan once under the given policy and seeded rng, and keep
    its collisions and the local states of every step."""
    check_options(policy, latency, horizon_cap)
    if isinstance(rng, int):
        rng = random.Random(rng)
    if horizon_cap is None:
        horizon_cap = default_horizon_cap(plan)
    collisions: list[Collision] = []
    snapshots = [(0,) * plan.n_agents]
    status, makespan, sent, _ = RunLoop(instance, plan, policy, schedule).run(
        rng, horizon_cap, min(latency, horizon_cap), collisions, snapshots)
    return ExecutionTrace(status, makespan, sent, collisions, snapshots)


def run_seeds(master_seed: int, run_indices) -> list[int]:
    """The seed of each run's generator: (master_seed + 1) * 2**32 + k for
    run k, distinct for k < 2**32 and never below 2**32."""
    return [(master_seed + 1) * 2**32 + k for k in run_indices]


def run_seed(master_seed: int, run_index: int) -> random.Random:
    """Counter-split per-run generator, independent of execution order."""
    return random.Random(run_seeds(master_seed, (run_index,))[0])


def fill_draws(row: np.ndarray, seed: int, start: int, mt: np.random.RandomState) -> None:
    """Write draws start, start + 1, … of `random.Random(seed)` into `row`.
    From 2**32 on, `random.seed` and `RandomState.seed` of the seed's
    32-bit words both run MT19937's init_by_array, and `random_sample`
    returns the same doubles as `random.random`, so `mt` fills the row in
    bulk.  numpy seeds a one-word key by init_genrand instead, so a smaller
    seed is refused."""
    if seed < 1 << 32:
        raise ValueError(f"fill_draws needs a seed >= 2**32, got {seed}")
    mt.seed(np.array([seed >> b & 0xFFFFFFFF for b in range(0, seed.bit_length(), 32)],
                     np.uint32))
    row[:] = mt.random_sample(start + len(row))[start:]


def check_runs(n_runs: int) -> None:
    """The run-count rule of `monte_carlo`, also `bench`'s `n_runs`."""
    if n_runs < 1:
        raise ValueError(f"need at least one run, got {n_runs}")


class LockStep:
    """A plan's `RunLoop` tables as arrays, for running many executions at once.

    Runs carry flat states agent * L + local state, with L = max X_i + 1 and
    each path padded with its goal, and every table is indexed by them: the
    vertex, whether the agent is unfinished, whether the step out of the
    state moves (and so draws), the draw below which that step fails (the
    agent's delay on a move, -1 on a wait, 2 once finished), the undirected
    edge of a move with its direction as the low bit, whether another path
    crosses that edge the other way (only such moves can swap), whether
    entering the state sends a message, under fsp the local state (L once
    finished) and under mcp the loop's waits as (sender j - waiting agent i,
    flat sender state) pairs, padded with (0, 0).  A run that finishes has
    entered every state once, so it has sent `messages`.  Some path must
    have two states.

    `run_block` finds its sparse cells, the mcp gate's waiting agents and
    the contested moves, by `np.flatnonzero` on the flat (runs x agents)
    masks: 2-4 us at 150 x 20, where a 2-D `np.nonzero` takes 11-12 us.
    Cell r * m + i plus a wait's offset j - i is cell r * m + j, the
    sender's column, and the padding reads the agent's own state against 0,
    which always holds.  The vertex table is int32, which numpy sorts
    fastest: at 150 runs x 20 agents the gather, sort and comparison of the
    vertex-collision count take 13 us on int32 rows, 14 us on uint16 and
    18 us on int64.  Under dummy, and for a lone agent, who waits for
    nobody, GO is the live mask: a run that goes has some agent GO and
    never deadlocks, so the deadlock test is skipped."""

    def __init__(self, loop: RunLoop, horizon_cap: int):
        self.policy = loop.policy
        self.horizon_cap = horizon_cap
        m, L = len(loop.last), max(loop.last) + 1
        self.m = m
        self.base = np.arange(m) * L
        local = np.arange(L)
        live = local < np.array(loop.last)[:, None]
        vertex = np.array([p + p[-1:] * (L - len(p)) for p in loop.verts])
        move = np.zeros((m, L), bool)
        move[:, :-1] = vertex[:, 1:] != vertex[:, :-1]
        self.delay = np.array(loop.delay)
        fail = np.where(move, self.delay[:, None], np.where(live, -1.0, 2.0))
        u, v = vertex[:, :-1][move[:, :-1]], vertex[:, 1:][move[:, :-1]]
        keys, ids = np.unique(np.minimum(u, v) * loop.n_vertices + np.maximum(u, v),
                              return_inverse=True)
        edge = np.zeros((m, L), np.int64)
        edge[move] = 2 * ids.ravel() + (u > v)
        self.n_slots = 2 * len(keys)
        # contested: some other agent crosses the move's edge the other way
        agent, back = np.nonzero(move)[0], edge[move] ^ 1
        crossers = np.zeros((self.n_slots, m), bool)
        crossers[edge[move], agent] = True
        contested = np.zeros((m, L), bool)
        contested[move] = crossers[back].sum(1) > crossers[back, agent]
        self.vertex = vertex.ravel().astype(np.int32 if loop.n_vertices < 1 << 31 else np.int64)
        self.move, self.fail, self.edge, self.contested, self.live, self.level = (
            a.ravel() for a in (move, fail, edge, contested, live, np.where(live, local, L)))

        sends = np.array([row + [0] * (L - len(row)) for row in loop.sends])
        self.messages = loop.messages
        self.sends = (sends > 0).ravel()
        if self.policy == "mcp":
            s, n, j, y = np.array([(i * L + x, n, j - i, j * L + y)
                                   for i, per_x in loop.waits.items()
                                   for x, w in enumerate(per_x) for n, (j, y) in enumerate(w)],
                                  np.int64).reshape(-1, 4).T
            self.wait_j, self.wait_y = np.zeros((2, m * L, n.max(initial=-1) + 1), np.int64)
            self.wait_j[s, n], self.wait_y[s, n] = j, y
            self.has_wait = np.bincount(s, minlength=m * L) > 0

        # draws per run: the mean number of tries of all moves plus two
        # standard deviations, so that few runs refill their buffer, but no
        # more than a run can take: one per agent and step
        moves, q = move.sum(1), 1.0 - self.delay
        mean, var = (moves / q).sum(), (moves * self.delay / q ** 2).sum()
        self.width = min(max(m, math.ceil(mean + 2 * math.sqrt(var))), horizon_cap * m)
        self.mt = np.random.RandomState(0)   # `fill_draws` reseeds it for every row

    def outcomes(self, seed: int, n_runs: int, latency: int):
        """(status, makespan, messages sent, collisions) of runs 0 … n_runs - 1
        in order, computed in as few blocks as `MC_BUFFER_BYTES` allows."""
        seeds = run_seeds(seed, range(n_runs))
        n_blocks = -(-n_runs // max(1, MC_BUFFER_BYTES // (8 * self.width)))
        for block in np.array_split(np.arange(n_runs), n_blocks):
            yield from self.run_block([seeds[k] for k in block.tolist()], latency)

    def run_block(self, seeds: list[int], latency: int):
        """The runs on generators `random.Random(seed)` for `seeds`, all
        advanced one step at a time.  Run r takes its draws in agent order
        within a step, through row r of a buffer that holds draws start[r],
        start[r] + 1, … of its stream.  Under fsp and mcp the runs read the
        oldest of their last latency + 1 pre-step states, as the loop does."""
        R, m, W, horizon_cap, mt = len(seeds), self.m, self.width, self.horizon_cap, self.mt
        buf = np.empty((R, W))
        for row, s in zip(buf, seeds):
            fill_draws(row, s, 0, mt)
        draws = buf.ravel()
        start = np.zeros(R, np.int64)           # stream index of each row's first draw
        last_sent = np.full(R, -latency - 1)    # step of the latest message
        collisions = np.zeros(R, np.int64)
        makespan = np.full(R, -1)
        deadlock = np.zeros(R, bool)
        stamp = np.zeros(R * self.n_slots, np.int32)   # step + 1 per edge slot crossed
        # per run still going: its row, flat states, unfinished agents, the
        # buffer position of its latest draw and the end of its row
        rows = np.arange(R)
        f = np.tile(self.base, (R, 1))
        live = self.live[f]
        taken, end = rows * W - 1, rows * W + W
        history: deque = deque(maxlen=latency + 1)   # their pre-step states
        vertex, move, fail, level = self.vertex, self.move, self.fail, self.level
        pairs = np.arange(1, m)
        fsp, mcp = (self.policy == p and m > 1 for p in ("fsp", "mcp"))   # a lone agent never waits
        for t in range(horizon_cap):
            go = live
            if fsp or mcp:
                history.append(f)
                seen = history[0]
            if fsp:
                # each agent's bound: the smallest seen level of the others
                s = level[seen]
                lo = np.partition(s, 1, 1)
                # a finished agent (level L) would pass only with every other seen
                # finished, when the run is over
                go = level[f] <= np.where(s == lo[:, :1], lo[:, 1:2], lo[:, :1])
            elif mcp:
                c = np.flatnonzero(self.has_wait[f])
                if len(c):
                    g = f.ravel()[c]
                    go.ravel()[c] = (seen.ravel()[c[:, None] + self.wait_j[g]]
                                     >= self.wait_y[g]).all(1)
            tries = go & move[f]
            n_tries = np.cumsum(tries, 1)
            n = n_tries[:, -1]
            for c in np.flatnonzero(taken + n >= end):
                k = rows[c]
                start[k] += taken[c] + 1 - k * W
                taken[c] = k * W - 1
                fill_draws(buf[k], seeds[k], start[k], mt)
            step = go & (draws[taken[:, None] + n_tries] >= fail[f])
            taken += n
            old, f = f, f + step
            live = self.live[f]

            # vertex collisions: pairs of agents on one vertex, from sorted positions
            at = np.sort(vertex[f], 1)
            same = at[:, 1:] == at[:, :-1]
            if same.any():
                collisions[rows] += (pairs - np.maximum.accumulate(
                    np.where(same, 0, pairs), 1)).sum(1)
            # edge collisions: an undirected edge crossed both ways in one run
            c = np.flatnonzero(step & self.contested[old])
            if len(c) > 1:
                slot = c // m * self.n_slots + self.edge[old.ravel()[c]]
                stamp[slot] = t + 1
                forward = slot[slot % 2 == 0]
                swapped = forward[stamp[forward + 1] == t + 1]
                if len(swapped):
                    collisions[rows] += np.bincount(np.unique(swapped) // self.n_slots,
                                                    minlength=len(rows))

            keep = going = live.any(1)
            if fsp or mcp:   # else GO is the live mask, and a run goes until it is done
                moved = go.any(1)   # some agent GO or a message in flight
                if latency:
                    last_sent[rows[(step & self.sends[f]).any(1)]] = t
                    moved |= last_sent[rows] >= t - latency
                keep = going & moved
            if not keep.all():
                makespan[rows[~going]] = t + 1
                deadlock[rows[going & ~keep]] = True
                rows, f, live, taken, end = (a[keep] for a in (rows, f, live, taken, end))
                history = deque((h[keep] for h in history), maxlen=latency + 1)
                if not len(rows):
                    break
        for k in range(R):
            if deadlock[k]:
                yield "deadlock", None, None, None
            elif makespan[k] < 0:
                yield "timeout", None, None, int(collisions[k])
            else:
                yield "done", int(makespan[k]), self.messages, int(collisions[k])


def monte_carlo(instance: Instance, plan: Plan, policy: str, n_runs: int,
                seed: int, horizon_cap: Optional[int] = None,
                latency: int = 0) -> RunStats:
    """Aggregate makespan/collision/message statistics over seeded runs."""
    check_options(policy, latency, horizon_cap)
    check_runs(n_runs)
    check_seed(seed)
    cap = default_horizon_cap(plan) if horizon_cap is None else horizon_cap
    latency = min(latency, cap)
    loop = RunLoop(instance, plan, policy)
    if plan.max_index and n_runs * plan.n_agents >= MC_LOCKSTEP_WORK[policy]:
        outcomes = LockStep(loop, cap).outcomes(seed, n_runs, latency)
    else:
        outcomes = (loop.run(random.Random(s), cap, latency)
                    for s in run_seeds(seed, range(n_runs)))
    makespans = []
    collision_counts = []
    timeouts = 0
    for k, (status, makespan, _, n_collisions) in enumerate(outcomes):
        if status == "deadlock":
            raise RuntimeError(f"deadlock during {policy} execution (run {k})")
        if status == "timeout":
            timeouts += 1
        else:
            makespans.append(makespan)
        collision_counts.append(n_collisions)
    if makespans:
        mean, half = stats_ci(makespans)
    else:
        mean, half = math.nan, math.nan
    mean_coll, _ = stats_ci(collision_counts)
    return RunStats(n_runs, mean, half, loop.messages, mean_coll, timeouts, policy)
