"""Exhaustive check of robust execution over every delay realization.

For tiny valid plans, every lagged state that a run under `mcp` or `fsp`
can reach is visited, with message latency 0 and 1: in each step any
subset of the moves commanded GO may fail, and a wait never fails.  A
lagged state is the tuple of the local-state vectors before the last
latency + 1 steps, oldest first; the policies read the oldest one (all
zeros before step `latency`).  No step between reachable states may put two
agents on one vertex or swap two agents along one edge, and from every
reachable state the run in which every move succeeds must finish.

The GO rules are written here from the policies' definitions, not read from
`run_execution`: under `fsp` an agent leaves x once every other agent is
seen at x or finished; under `mcp` once it holds the message of every
reduced inter-agent edge into its states up to x + 1.  At each reachable
state the `mcp` rule must agree with the waits of `mcp_schedule`, and walks
drawn at random through the reachable states must be what `run_execution`
does on the same draws.

The same walk over the reachable states gives the exact expected makespan,
which the mean of `monte_carlo`'s runs must match within 4 standard errors.
"""

import functools
import math
import random
from collections import defaultdict
from itertools import combinations
from types import SimpleNamespace

import pytest

from mapf_dp import (AgentSpec, Graph, Instance, Path, Plan, monte_carlo, run_execution,
                     validate_plan)
from mapf_dp.dependency import build_partial_order, transitive_reduction
from mapf_dp.model import parse_map
from mapf_dp.simulate import mcp_schedule
from tests.conftest import C1, C2, C3, C4, POCKET
from tests.test_simulate import StubRng

OPEN_3X3 = "...\n...\n..."
# (graph, paths): 2-3 agents, at most 8 local states each
PLANS = {
    "pocket": (Graph.from_edges(5, [(C1, C2), (C2, C3), (C3, C4), (POCKET, C2)]),
               [(C2, POCKET, C2, POCKET, POCKET, POCKET, C2, C3),
                (C1, C1, C1, C1, C2, C3, C4)]),
    "open-3x3": (parse_map(OPEN_3X3),
                 [(5, 2, 1, 0, 3, 6), (8, 8, 7, 4, 1, 0), (7, 4, 5, 8, 7)]),
    "rotate-3x3": (parse_map(OPEN_3X3),
                   [(4, 1, 0, 3, 6), (3, 3, 6, 7, 8), (6, 7, 4, 1)]),
    "strip-4x2": (parse_map("....\n...."),
                  [(5, 1, 1, 1, 5, 4), (4, 4, 5, 6, 7, 3), (0, 0, 0, 4, 0, 1, 2)]),
    "grid-4x3": (parse_map("....\n....\n...."),
                 [(7, 6, 5, 9), (11, 11, 10, 6, 2, 1, 0), (10, 9, 8, 8, 4, 5, 6, 10)]),
}


def valid_plan(name):
    return planned_instance(name, (0.5,) * len(PLANS[name][1]))[1]


def planned_instance(name, probs):
    """The instance of PLANS[name], its agents delayed with `probs`, and its
    plan, which must be valid."""
    graph, paths = PLANS[name]
    plan = Plan(tuple(Path(p) for p in paths))
    instance = Instance(graph, tuple(AgentSpec(i, p[0], p[-1], q)
                                     for i, (p, q) in enumerate(zip(paths, probs))))
    assert validate_plan(instance, plan).is_valid
    return instance, plan


def go_rule(plan, policy):
    """go(seen, i, x): whether agent i, in local state x < X_i, may leave it
    when it has seen the other agents in local states `seen`."""
    last = [p.last_index for p in plan.paths]
    if policy == "fsp":
        return lambda seen, i, x: all(seen[j] >= min(x, last[j])
                                      for j in range(len(last)) if j != i)
    into = defaultdict(list)   # i: (x', j, y) per reduced edge (j, y) -> (i, x')
    for (j, y), (i, x) in transitive_reduction(build_partial_order(plan)).inter_agent_edges:
        into[i].append((x, j, y))
    return lambda seen, i, x: all(seen[j] >= y for xp, j, y in into[i] if xp <= x + 1)


def commanded(plan, go, lagged):
    """The agents commanded GO in the step from `lagged`, and those of them
    whose move changes vertex, so that it may fail."""
    seen, now = lagged[0], lagged[-1]
    gos = [i for i, (p, x) in enumerate(zip(plan.paths, now))
           if x < p.last_index and go(seen, i, x)]
    return gos, [i for i in gos if plan.paths[i].vertices[now[i]] !=
                 plan.paths[i].vertices[now[i] + 1]]


def advance(lagged, gos, failed):
    now = tuple(x + (i in gos and i not in failed) for i, x in enumerate(lagged[-1]))
    return lagged[1:] + (now,)


def collisions(plan, before, after):
    """Vertex and edge collisions of the step from local states `before` to
    `after`."""
    at = [p.vertices[x] for p, x in zip(plan.paths, after)]
    found = [("vertex", i, j) for i, j in combinations(range(len(at)), 2) if at[i] == at[j]]
    moves = [(p.vertices[x], p.vertices[y]) for p, x, y in zip(plan.paths, before, after)]
    found += [("edge", i, j) for i, j in combinations(range(len(at)), 2)
              if moves[i][0] != moves[i][1] and moves[i] == moves[j][::-1]]
    return found


def explore(plan, policy, latency):
    """Every reachable lagged state, mapped to its successor when every
    move succeeds (None once every agent is finished)."""
    go = go_rule(plan, policy)
    last = tuple(p.last_index for p in plan.paths)
    waits = mcp_schedule(plan) if policy == "mcp" else None
    all_succeed = {}
    todo = [((0,) * plan.n_agents,) * (latency + 1)]
    while todo:
        lagged = todo.pop()
        if lagged in all_succeed:
            continue
        if lagged[-1] == last:
            all_succeed[lagged] = None
            continue
        gos, movers = commanded(plan, go, lagged)
        if waits is not None:
            seen = lagged[0]
            assert gos == [i for i, x in enumerate(lagged[-1]) if x < last[i] and
                           all(seen[j] >= y for j, y in waits[i][x])], lagged
        for k in range(len(movers) + 1):
            for failed in combinations(movers, k):
                after = advance(lagged, gos, failed)
                assert not collisions(plan, lagged[-1], after[-1]), (lagged, failed)
                todo.append(after)
        all_succeed[lagged] = advance(lagged, gos, ())
    return all_succeed


CASES = [(name, policy, latency) for name in PLANS
         for policy in ("mcp", "fsp") for latency in (0, 1)]


@pytest.mark.parametrize("name, policy, latency", CASES)
def test_every_realization_is_collision_free_and_can_finish(name, policy, latency):
    plan = valid_plan(name)
    all_succeed = explore(plan, policy, latency)
    finishes = set()
    for lagged in all_succeed:
        chain = []
        while lagged not in finishes and all_succeed[lagged] is not None:
            assert lagged not in chain, f"stuck in {lagged}"
            chain.append(lagged)
            lagged = all_succeed[lagged]
        finishes.update(chain)


@pytest.mark.parametrize("name, policy, latency", CASES)
def test_random_walks_match_run_execution(name, policy, latency):
    # a draw of 0.0 fails a move, 1.0 makes it, for any delay probability
    plan = valid_plan(name)
    go = go_rule(plan, policy)
    last = tuple(p.last_index for p in plan.paths)
    probs = SimpleNamespace(agents=[SimpleNamespace(delay_prob=0.5)] * plan.n_agents)
    rng = random.Random(f"{name}-{policy}-{latency}")
    for _ in range(25):
        lagged = ((0,) * plan.n_agents,) * (latency + 1)
        snapshots, draws = [lagged[-1]], []
        while lagged[-1] != last:
            assert len(snapshots) < 1000, "the walk does not finish"
            gos, movers = commanded(plan, go, lagged)
            failed = [i for i in movers if rng.random() < 0.5]
            draws += [0.0 if i in failed else 1.0 for i in movers]
            lagged = advance(lagged, gos, failed)
            snapshots.append(lagged[-1])
        stub = StubRng(draws)
        trace = run_execution(probs, plan, policy, stub, latency=latency)
        assert (trace.status, trace.snapshots, trace.collisions, stub.draws) == \
            ("done", snapshots, [], [])


def exact_expected_makespan(plan, probs, policy, latency):
    """The expected makespan of a run, over every delay realization.

    Each move commanded GO fails on its own with its agent's delay
    probability, and a wait never fails.  Over the reachable lagged states s,
    E[s] = (1 + sum over s' != s of P(s -> s') E[s']) / (1 - P(s -> s)), and
    E[s] = 0 once every agent is finished.  A step that leaves s raises the
    sum of its entries, so the recursion ends."""
    go = go_rule(plan, policy)
    last = tuple(p.last_index for p in plan.paths)

    @functools.cache
    def expected(lagged):
        if lagged[-1] == last:
            return 0.0
        gos, movers = commanded(plan, go, lagged)
        stay, rest = 0.0, 1.0
        for k in range(len(movers) + 1):
            for failed in combinations(movers, k):
                p = math.prod(probs[i] if i in failed else 1 - probs[i] for i in movers)
                after = advance(lagged, gos, failed)
                if after == lagged:
                    stay += p
                else:
                    rest += p * expected(after)
        return rest / (1 - stay)

    return expected(((0,) * plan.n_agents,) * (latency + 1))


@pytest.mark.parametrize("name, policy, latency", CASES)
def test_monte_carlo_mean_is_exact_expectation(name, policy, latency):
    # 2000 runs, so in lock step.  Seeds 1-5 put every case within 3.65
    # standard errors; an fsp bound one higher, a wait that can fail, or
    # latency read one step fresher each fail 10 or more of the 20 cases
    probs = (0.3, 0.5, 0.2)
    instance, plan = planned_instance(name, probs)
    exact = exact_expected_makespan(plan, probs, policy, latency)
    stats = monte_carlo(instance, plan, policy, 2000, 1, latency=latency)
    assert stats.timeouts == 0
    assert abs(stats.mean_makespan - exact) <= 4 * stats.ci95 / 1.96, exact
