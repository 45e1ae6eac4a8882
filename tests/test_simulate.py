import functools
import math
import random
import re
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapf_dp import (AgentSpec, Graph, Instance, Path, Plan, RunStats,
                     WarehouseParams, generate_random_instance, generate_warehouse_instance,
                     monte_carlo, run_execution, simulate, solve_ame, stats_ci)
from mapf_dp.dependency import build_partial_order, message_schedule, transitive_reduction
from mapf_dp.simulate import (MC_LOCKSTEP_WORK, POLICIES, LockStep, RunLoop,
                               default_horizon_cap, fill_draws, mcp_schedule, run_seed,
                               run_seeds)
from tests import sim_oracle
from tests.conftest import C1, C2, C3, C4, POCKET


class StubRng:
    """Scripted uniform draws: success iff draw >= delay probability."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def line_instance(n, p=0.5):
    g = Graph.from_edges(n, [(k, k + 1) for k in range(n - 1)])
    return Instance(g, (AgentSpec(0, 0, n - 1, p),))


def two_lines(plan, p=0.5):
    """Instance with one agent per path of the plan; runs never read the graph."""
    n = 1 + max(v for path in plan.paths for v in path.vertices)
    g = Graph.from_edges(n, [])
    return Instance(g, tuple(AgentSpec(i, path.vertices[0], path.vertices[-1], p)
                             for i, path in enumerate(plan.paths)))


def scripted(instance, plan, policy, draws, **kw):
    """Run on scripted draws; every draw must be used."""
    rng = StubRng(draws)
    tr = run_execution(instance, plan, policy, rng, **kw)
    assert rng.draws == []
    return tr


class TestStep:
    def test_finished_agent_ignores_go(self):
        plan = Plan((Path((0, 1)), Path((2, 3, 4))))
        # agent 0 finishes in step 0 and draws nothing afterwards
        tr = scripted(two_lines(plan), plan, "dummy", [0.9, 0.9, 0.9])
        assert tr.snapshots == [(0, 0), (1, 1), (1, 2)]

    def test_wait_never_fails(self):
        plan = Plan((Path((0, 0, 1)),))
        tr = scripted(line_instance(2, p=0.9), plan, "dummy", [0.95])
        assert tr.snapshots == [(0,), (1,), (2,)]

    def test_move_fails_with_delay_probability(self):
        plan = Plan((Path((0, 1)),))
        # 0.2 < p: delayed; 0.8 >= p: moves
        tr = scripted(line_instance(2), plan, "dummy", [0.2, 0.8])
        assert tr.snapshots == [(0,), (0,), (1,)]

    def test_stop_freezes(self, pocket_instance, pocket_long_plan):
        # agent 0 keeps failing its first move; agent 1 walks its waits to
        # state 3, then holds there without drawing
        tr = scripted(pocket_instance, pocket_long_plan, "mcp", [0.0] * 6,
                      horizon_cap=6)
        assert tr.status == "timeout"
        assert [s[1] for s in tr.snapshots] == [0, 1, 2, 3, 3, 3, 3]

    def test_coins_drawn_in_agent_order(self):
        plan = Plan((Path((0, 1)), Path((2, 3))))
        tr = scripted(two_lines(plan), plan, "dummy", [0.1, 0.9, 0.9])
        assert tr.snapshots == [(0, 0), (0, 1), (1, 1)]


class TestCommands:
    def test_fsp_all_at_zero_go(self):
        plan = Plan((Path((0, 1)), Path((2, 3))))
        tr = scripted(two_lines(plan), plan, "fsp", [0.9, 0.9])
        assert tr.snapshots == [(0, 0), (1, 1)]

    def test_fsp_leader_stops_for_laggard(self):
        plan = Plan((Path((0, 1, 2)), Path((3, 4, 5))))
        # agent 1 fails twice; agent 0 holds at state 1 until it catches up
        tr = scripted(two_lines(plan), plan, "fsp",
                      [0.9, 0.1, 0.1, 0.9, 0.9, 0.9])
        assert tr.snapshots == [(0, 0), (1, 0), (1, 0), (1, 1), (2, 2)]

    def test_fsp_finished_others_always_go(self):
        plan = Plan((Path((0, 1, 2, 3)), Path((4, 5))))
        tr = scripted(two_lines(plan), plan, "fsp", [0.9] * 4)
        assert tr.snapshots == [(0, 0), (1, 1), (2, 1), (3, 1)]

    def test_dummy_go_unless_done(self):
        plan = Plan((Path((0, 1)), Path((2,))))
        tr = scripted(two_lines(plan), plan, "dummy", [0.9])
        assert tr.snapshots == [(0, 0), (1, 0)]

    def test_mcp_waits_for_threshold(self, pocket_instance, pocket_long_plan):
        # agent 0 reaches state 3 in step 2; agent 1, waiting at state 3 for
        # that one message, leaves it in step 3 + latency
        assert mcp_schedule(pocket_long_plan)[1][3] == ((0, 3),)
        for latency in (0, 1, 2):
            tr = scripted(pocket_instance, pocket_long_plan, "mcp", [0.9] * 4,
                          horizon_cap=4 + latency, latency=latency)
            agent1 = [s[1] for s in tr.snapshots]
            assert agent1 == [0, 1, 2] + [3] * (1 + latency) + [4]
            assert tr.snapshots[3][0] == 3

    def test_mcp_zero_thresholds_match_dummy(self):
        plan = Plan((Path((0, 1)), Path((2, 3))))
        inst = two_lines(plan)
        for k in range(20):
            assert run_execution(inst, plan, "mcp", run_seed(8, k)).snapshots \
                == run_execution(inst, plan, "dummy", run_seed(8, k)).snapshots


class TestRunExecution:
    def test_single_agent_geometric_makespan(self):
        inst = line_instance(4, p=0.5)
        plan = Plan((Path((0, 1, 2, 3)),))
        samples = []
        for k in range(2000):
            tr = run_execution(inst, plan, "mcp", run_seed(77, k))
            assert tr.status == "done"
            assert tr.makespan >= 3
            samples.append(tr.makespan)
        mean, half = stats_ci(samples)
        assert mean == pytest.approx(6.0, abs=0.3)

    def test_zero_length_plan(self):
        g = Graph.from_edges(2, [(0, 1)])
        inst = Instance(g, (AgentSpec(0, 0, 0, 0.5),))
        plan = Plan((Path((0,)),))
        tr = run_execution(inst, plan, "fsp", 0)
        assert tr.status == "done" and tr.makespan == 0

    def test_robust_policies_collision_free(self, pocket_instance,
                                            pocket_valid_plan):
        for policy in ("mcp", "fsp"):
            for k in range(200):
                tr = run_execution(pocket_instance, pocket_valid_plan, policy,
                                   run_seed(5, k))
                assert tr.status == "done"
                assert tr.collisions == []

    def test_robust_policies_tolerate_delivery_latency(self, pocket_instance,
                                                       pocket_valid_plan):
        for policy in ("mcp", "fsp"):
            for latency in (1, 3):
                for k in range(50):
                    tr = run_execution(pocket_instance, pocket_valid_plan,
                                       policy, run_seed(6, k), latency=latency)
                    assert tr.status == "done"
                    assert tr.collisions == []

    def test_dummy_policy_can_collide(self, pocket_instance,
                                      pocket_invalid_plan):
        # delay the leader's first move, let the follower step into it
        rng = StubRng([0.0, 0.99] + [0.99] * 50)
        tr = run_execution(pocket_instance, pocket_invalid_plan, "dummy", rng)
        assert any(c.kind == "vertex" for c in tr.collisions)

    def test_timeout_reported(self):
        inst = line_instance(4, p=0.9)
        plan = Plan((Path((0, 1, 2, 3)),))
        tr = run_execution(inst, plan, "mcp", 1, horizon_cap=1)
        assert tr.status == "timeout"
        assert tr.makespan is None

    def test_rejects_negative_latency(self, pocket_instance, pocket_valid_plan):
        with pytest.raises(ValueError):
            run_execution(pocket_instance, pocket_valid_plan, "mcp", 0, latency=-1)

    def test_rejects_unknown_policy(self, pocket_instance, pocket_valid_plan):
        # the rule of `check_options`, shared with `monte_carlo`
        with pytest.raises(ValueError, match="^unknown policy 'xyz'$"):
            run_execution(pocket_instance, pocket_valid_plan, "xyz", 0)
        with pytest.raises(ValueError, match="^unknown policy 'xyz'$"):
            monte_carlo(pocket_instance, pocket_valid_plan, "xyz", 5, 0)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_latency_past_the_cap_acts_as_the_cap(self, policy):
        # from latency = cap on, no message sent in a run is read before the
        # cap, and none is out of flight, so a larger latency changes no run:
        # both engines run with the cap; 10**30 once overflowed their buffers
        inst, plan = solved_plans()[0]
        cap = 2 * plan.max_index
        for n_runs in (4, -(-MC_LOCKSTEP_WORK[policy] // plan.n_agents)):   # loop, lock step
            stats = [repr(monte_carlo(inst, plan, policy, n_runs, 7, cap, latency))
                     for latency in (cap, 10**30)]   # repr: a nan mean is not equal to itself
            assert stats[0] == stats[1]
        traces = [run_execution(inst, plan, policy, run_seed(7, 0), horizon_cap=cap,
                                latency=latency) for latency in (cap, 10**30)]
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("cap", [0, -3])
    def test_rejects_horizon_cap_below_one(self, pocket_instance, pocket_valid_plan, cap):
        # the rule of `check_options`, shared with `monte_carlo`
        for run in (lambda: run_execution(pocket_instance, pocket_valid_plan, "fsp", 0,
                                          horizon_cap=cap),
                    lambda: monte_carlo(pocket_instance, pocket_valid_plan, "fsp", 3, 0, cap)):
            with pytest.raises(ValueError, match=rf"^horizon cap must be >= 1, got {cap}$"):
                run()

    def test_trace_recording(self, pocket_instance, pocket_valid_plan):
        tr = run_execution(pocket_instance, pocket_valid_plan, "mcp", run_seed(0, 0))
        assert tr.snapshots[0] == (0, 0)
        assert tr.snapshots[-1] == tuple(
            p.last_index for p in pocket_valid_plan.paths)
        assert len(tr.snapshots) == tr.makespan + 1


    def test_deadlock_once_messages_have_landed(self):
        # a hand-made schedule no plan yields: agent 0 waits for agent 1's
        # states 1 and 2, agent 1 waits at state 1 for agent 0's state 1
        plan = Plan((Path((0, 0, 1)), Path((2, 2, 2))))
        waits = {0: [((1, 1), (1, 2)), (), ()],
                 1: [(), ((0, 1),), ()]}
        for latency in (0, 2):
            tr = run_execution(two_lines(plan), plan, "mcp", StubRng([]),
                               schedule=waits, latency=latency)
            # agent 1's message from step 0 is in flight until step latency
            assert tr.status == "deadlock" and tr.makespan is None
            assert tr.messages_sent == 1
            assert tr.snapshots == [(0, 0)] + [(0, 1)] * (1 + latency)


class TestMessageAccounting:
    def test_fsp_closed_form(self, pocket_instance, pocket_valid_plan):
        m = pocket_valid_plan.n_agents
        total_x = sum(p.last_index for p in pocket_valid_plan.paths)
        for k in range(100):
            tr = run_execution(pocket_instance, pocket_valid_plan, "fsp",
                               run_seed(11, k))
            assert tr.messages_sent == (m - 1) * total_x

    def test_mcp_matches_schedule_total(self, pocket_instance,
                                        pocket_long_plan):
        waits = mcp_schedule(pocket_long_plan)
        for k in range(100):
            tr = run_execution(pocket_instance, pocket_long_plan, "mcp",
                               run_seed(12, k))
            assert tr.messages_sent == sum(len(w) for per_x in waits.values()
                                           for w in per_x) == 3

    def test_mcp_sends_per_state_match_reduction(self):
        # sends[j][y] is the number of reduced inter-agent edges out of (j, y)
        for inst, plan in solved_plans():
            reduced = transitive_reduction(build_partial_order(plan))
            out_edges = Counter(u for u, _ in reduced.inter_agent_edges)
            sends = RunLoop(inst, plan, "mcp").sends
            assert [len(row) for row in sends] == [p.last_index + 1 for p in plan.paths]
            assert {(j, y): n for j, row in enumerate(sends) for y, n in enumerate(row)
                    if n} == out_edges

    def test_dummy_sends_nothing(self, pocket_instance, pocket_valid_plan):
        tr = run_execution(pocket_instance, pocket_valid_plan, "dummy", 3)
        assert tr.messages_sent == 0


@functools.cache
def solved_plans():
    out = []
    for seed in range(4):
        inst = generate_random_instance(8, 8, 0.15, 5, (0, 0.6), seed)
        result = solve_ame(inst)
        assert result.solved
        out.append((inst, result.plan))
    return tuple(out)


def assert_matches_oracle(instance, plan, policy, rng_of, horizon_cap=None,
                          latency=0):
    """Status, makespan, messages, collisions in order and snapshots agree."""
    new = run_execution(instance, plan, policy, rng_of(), horizon_cap=horizon_cap,
                        latency=latency)
    old = sim_oracle.run_execution(instance, plan, policy, rng_of(),
                                   horizon_cap=horizon_cap, latency=latency,
                                   record=True)
    assert new == old
    return new


# unvalidated plans: shared sender states, collisions of every kind
ARBITRARY_PATHS = st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8),
                           min_size=1, max_size=5)


def arbitrary_case(paths):
    """The plan of `paths`, with an instance that holds only what runs read:
    the delay probabilities."""
    plan = Plan(tuple(Path(tuple(p)) for p in paths))
    return SimpleNamespace(agents=[SimpleNamespace(delay_prob=0.2 + 0.15 * i)
                                   for i in range(len(paths))]), plan


class TestMatchesOracle:
    @given(case=st.integers(0, 3), policy=st.sampled_from(POLICIES),
           latency=st.integers(0, 3), seed=st.integers(0, 2**32),
           capped=st.booleans())
    @settings(max_examples=120)
    def test_solved_plans(self, case, policy, latency, seed, capped):
        inst, plan = solved_plans()[case]
        cap = plan.max_index if capped else None
        for k in range(4):
            assert_matches_oracle(inst, plan, policy, lambda: run_seed(seed, k),
                                  horizon_cap=cap, latency=latency)

    @given(paths=ARBITRARY_PATHS, policy=st.sampled_from(POLICIES),
           latency=st.integers(0, 3), seed=st.integers(0, 2**32))
    @settings(max_examples=150)
    def test_arbitrary_plans(self, paths, policy, latency, seed):
        inst, plan = arbitrary_case(paths)
        for k in range(3):
            assert_matches_oracle(inst, plan, policy, lambda: run_seed(seed, k),
                                  latency=latency)

    def test_pocket_plans(self, pocket_instance, pocket_valid_plan,
                          pocket_long_plan):
        for plan in (pocket_valid_plan, pocket_long_plan):
            for policy in POLICIES:
                for latency in range(4):
                    for cap in (None, 5):
                        for k in range(10):
                            assert_matches_oracle(
                                pocket_instance, plan, policy,
                                lambda: run_seed(latency, k), cap, latency)

    @given(paths=ARBITRARY_PATHS, policy=st.sampled_from(POLICIES),
           latency=st.integers(0, 3), seed=st.integers(0, 2**32),
           n_runs=st.integers(1, 6), capped=st.booleans())
    @settings(max_examples=150)
    def test_monte_carlo_loop(self, paths, policy, latency, seed, n_runs, capped):
        # below its threshold `monte_carlo` runs the loop, which shares its
        # engine with `run_execution`; the oracle is independent of both
        inst, plan = arbitrary_case(paths)
        assert n_runs * plan.n_agents < MC_LOCKSTEP_WORK[policy]
        cap = plan.max_index + 1 if capped else None
        assert monte_carlo(inst, plan, policy, n_runs, seed, cap, latency).as_dict() \
            == looped_stats(inst, plan, policy, n_runs, seed, cap, latency,
                            run=sim_oracle.run_execution)

    def test_invalid_plan_collisions(self, pocket_instance, pocket_invalid_plan):
        # a head-on swap through C2-C3, besides the pocket plan's follower
        swap = Plan((Path((C2, C2, C3, C4)), Path((C4, C3, C2, C1))))
        kinds = set()
        for plan in (pocket_invalid_plan, swap):
            for k in range(100):
                tr = assert_matches_oracle(pocket_instance, plan, "dummy",
                                           lambda: run_seed(9, k))
                kinds.update(c.kind for c in tr.collisions)
        assert kinds == {"vertex", "edge"}


class TestFspLevels:
    """Under fsp an agent leaves x only once every other unfinished agent has
    reached x, so the unfinished agents' local states differ by at most 1:
    the rule by which `run_execution` visits only the lowest level's agents."""

    @staticmethod
    def assert_two_levels(plan, snapshots):
        last = [p.last_index for p in plan.paths]
        for snap in snapshots:
            xs = [x for x, lx in zip(snap, last) if x < lx]
            assert not xs or max(xs) - min(xs) <= 1, snap

    @given(paths=ARBITRARY_PATHS, latency=st.integers(0, 3), seed=st.integers(0, 2**32))
    @settings(max_examples=150)
    def test_arbitrary_plans(self, paths, latency, seed):
        inst, plan = arbitrary_case(paths)
        for k in range(3):
            tr = run_execution(inst, plan, "fsp", run_seed(seed, k), latency=latency)
            self.assert_two_levels(plan, tr.snapshots)

    @pytest.mark.parametrize("case", range(4))
    def test_solved_plans(self, case):
        inst, plan = solved_plans()[case]
        for latency in range(4):
            for k in range(10):
                tr = run_execution(inst, plan, "fsp", run_seed(latency, k), latency=latency)
                assert tr.status == "done"
                self.assert_two_levels(plan, tr.snapshots)


class TestMonteCarlo:
    def test_deterministic_stats(self, pocket_instance, pocket_valid_plan):
        a = monte_carlo(pocket_instance, pocket_valid_plan, "mcp", 50, 21)
        b = monte_carlo(pocket_instance, pocket_valid_plan, "mcp", 50, 21)
        assert a == b

    def test_single_run_zero_halfwidth(self, pocket_instance,
                                       pocket_valid_plan):
        s = monte_carlo(pocket_instance, pocket_valid_plan, "mcp", 1, 4)
        assert s.ci95 == 0.0

    def test_timeouts_surfaced_and_excluded(self):
        inst = line_instance(4, p=0.9)
        plan = Plan((Path((0, 1, 2, 3)),))
        s = monte_carlo(inst, plan, "mcp", 20, 2, horizon_cap=2)
        assert s.timeouts == 20
        assert math.isnan(s.mean_makespan)

    @pytest.mark.parametrize("policy", ["mcp", "fsp"])
    def test_messages_without_a_completed_run(self, policy, blocks):
        # a one-step horizon cap ends every run before it is done; the count
        # is still what a completed run sends, on the loop and in lock step
        inst, plan = lockstep_cases()["random-0"]
        done = monte_carlo(inst, plan, policy, 4, 3)
        assert done.timeouts == 0 and done.messages > 0
        at = lockstep_runs(plan, policy)
        for n_runs in (at - 1, at):
            s = monte_carlo(inst, plan, policy, n_runs, 3, horizon_cap=1)
            assert s.timeouts == n_runs and s.messages == done.messages
        assert blocks == [at]

    def test_rejects_zero_runs(self, pocket_instance, pocket_valid_plan):
        with pytest.raises(ValueError):
            monte_carlo(pocket_instance, pocket_valid_plan, "mcp", 0, 1)

    def test_rejects_negative_seed(self, pocket_instance, pocket_valid_plan):
        with pytest.raises(ValueError, match="got -1$"):
            monte_carlo(pocket_instance, pocket_valid_plan, "mcp", 5, -1)

    @pytest.mark.parametrize("n_paths, n_agents", [(2, 3), (3, 2)])
    def test_rejects_plan_for_other_agent_count(self, n_paths, n_agents):
        inst = generate_random_instance(8, 8, 0.1, 3, (0, 0.5), 1)
        plan = Plan(solve_ame(inst).plan.paths[:n_paths])
        inst = Instance(inst.graph, inst.agents[:n_agents])
        message = f"^plan has {n_paths} paths for {n_agents} agents$"
        for policy in POLICIES:
            with pytest.raises(ValueError, match=message):
                run_execution(inst, plan, policy, 0)
            # below the work threshold the loop would run, at it lock step
            at = lockstep_runs(plan, policy)
            for n_runs in (at - 1, at):
                with pytest.raises(ValueError, match=message):
                    monte_carlo(inst, plan, policy, n_runs, 0)

    def test_as_dict_order(self, pocket_instance, pocket_valid_plan):
        # `simulate` prints these keys in this order
        s = monte_carlo(pocket_instance, pocket_valid_plan, "mcp", 5, 1)
        assert list(s.as_dict()) == ["n_runs", "mean_makespan", "ci95", "messages",
                                     "mean_collisions", "timeouts", "policy"]
        assert s.as_dict() == {k: getattr(s, k) for k in s.as_dict()}


def looped_stats(instance, plan, policy, n_runs, seed, horizon_cap=None, latency=0,
                 run=run_execution):
    """`monte_carlo`'s statistics from a loop over `run`, `run_execution` or
    the oracle's, run k on `run_seed(seed, k)`; a deadlock raises as
    `monte_carlo` does."""
    traces = []
    for k in range(n_runs):
        tr = run(instance, plan, policy, run_seed(seed, k),
                 horizon_cap=horizon_cap, latency=latency)
        if tr.status == "deadlock":
            raise RuntimeError(f"deadlock during {policy} execution (run {k})")
        traces.append(tr)
    done = [tr for tr in traces if tr.status == "done"]
    mean, half = stats_ci(tr.makespan for tr in done) if done else (math.nan, math.nan)
    messages = run_messages(plan, policy)
    assert all(tr.messages_sent == messages for tr in done)
    return RunStats(n_runs, mean, half, messages,
                    stats_ci(len(tr.collisions) for tr in traces)[0],
                    n_runs - len(done), policy).as_dict()


def run_messages(plan, policy):
    """The messages that one completed run sends: one per mcp wait, and
    m - 1 per fsp advance."""
    if policy == "mcp":
        return sum(len(w) for per_x in simulate.mcp_schedule(plan).values() for w in per_x)
    return (plan.n_agents - 1) * plan.sum_indices if policy == "fsp" else 0


@functools.cache
def lockstep_cases():
    corridor = Graph.from_edges(5, [(C1, C2), (C2, C3), (C3, C4), (POCKET, C2)])
    pocket = Instance(corridor, (AgentSpec(0, C2, C3, 0.5), AgentSpec(1, C1, C4, 0.3)))
    crossing = Instance(corridor, (AgentSpec(0, C1, C4, 0.5), AgentSpec(1, C3, POCKET, 0.3)))
    waits_only = Plan((Path((0, 0, 0)), Path((2,))))
    star_paths = ((4, 0, 2), (1, 0, 4, 0, 1), (2, 0, 1, 0))
    star = Instance(Graph.from_edges(5, [(0, k) for k in range(1, 5)]),
                    tuple(AgentSpec(i, p[0], p[-1], q)
                          for i, (p, q) in enumerate(zip(star_paths, (0.5, 0.3, 0.4)))))
    warehouse = generate_warehouse_instance(WarehouseParams(), 6, (0, 0.5), 1001)
    return {
        **{f"random-{k}": case for k, case in enumerate(solved_plans()[:2])},
        "warehouse": (warehouse, solve_ame(warehouse).plan),
        "pocket-valid": (pocket, Plan((Path((C2, POCKET, POCKET, POCKET, C2, C3)),
                                       Path((C1, C1, C2, C3, C4))))),
        # a follower too close behind
        "pocket-invalid": (pocket, Plan((Path((C2, POCKET, POCKET, C2, C3)),
                                         Path((C1, C2, C3, C4))))),
        # a head-on swap through C2-C3
        "swap": (pocket, Plan((Path((C2, C2, C3, C4)), Path((C4, C3, C2, C1))))),
        "one-agent": (line_instance(4, p=0.7), Plan((Path((0, 1, 1, 2, 3)),))),
        # C2-C3 crossed both ways, by agent 1 at index 0 and by agent 0 at index 3
        "crossing": (crossing, Plan((Path((C1, C1, C1, C2, C3, C4)), Path((C3, C2, POCKET))))),
        # no agent moves, but one path waits twice: this plan runs in lock step
        "waits-only": (two_lines(waits_only), waits_only),
        # invalid: agent 1 enters the centre again only after messages from
        # agents 0 and 2, and agent 2 only after messages from 0 and 1
        "star": (star, Plan(tuple(Path(p) for p in star_paths))),
    }


def lockstep_runs(plan, policy):
    """The fewest runs of a `monte_carlo` call on `plan` under `policy` that
    run in lock step."""
    return -(-MC_LOCKSTEP_WORK[policy] // plan.n_agents)


@pytest.fixture
def blocks(monkeypatch):
    """The run count of each lock-step block that `monte_carlo` runs, in order."""
    sizes = []

    class Spy(LockStep):
        def run_block(self, seeds, latency):
            sizes.append(len(seeds))
            return super().run_block(seeds, latency)

    monkeypatch.setattr(simulate, "LockStep", Spy)
    return sizes


def reduction_waits(plan):
    """The waits of the three-stage chain: partial order, its transitive
    reduction, and the reduced graph's message schedule."""
    return message_schedule(transitive_reduction(build_partial_order(plan)), plan)


class TestMcpSchedule:
    """`mcp_schedule` sweeps the states once instead of building the partial
    order; its waits must equal the reduction's on every plan, valid or not."""

    # arbitrary plans on 1 to 6 vertices: revisits, waits, length-1 paths,
    # one agent, and mostly invalid plans
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=8), min_size=1, max_size=6)))
    @settings(max_examples=500)
    def test_matches_reduction(self, paths):
        plan = Plan(tuple(Path(tuple(p)) for p in paths))
        assert mcp_schedule(plan) == reduction_waits(plan)

    @pytest.mark.parametrize("case", ["solved-0", "solved-1", "solved-2", "solved-3",
                                      "warehouse", "pocket-valid", "pocket-invalid", "swap",
                                      "one-agent", "crossing", "waits-only", "star"])
    def test_matches_reduction_on_named_plans(self, case):
        named = {**{f"solved-{k}": c for k, c in enumerate(solved_plans())}, **lockstep_cases()}
        _, plan = named[case]
        assert mcp_schedule(plan) == reduction_waits(plan)


class TestLockStep:
    """From its policy's `MC_LOCKSTEP_WORK` runs x agents on, `monte_carlo`
    advances its runs in lock step; its statistics must equal, bit for bit, those of a
    loop over `run_execution`."""

    @pytest.mark.parametrize("case", ["random-0", "random-1", "warehouse", "pocket-valid",
                                      "pocket-invalid", "swap", "one-agent", "crossing",
                                      "waits-only", "star"])
    def test_matches_loop(self, case, blocks, monkeypatch):
        inst, plan = lockstep_cases()[case]
        for policy in POLICIES:
            at = lockstep_runs(plan, policy)
            for latency in (0, 1, 2):
                # just below the work threshold the loop runs; at it, one block
                for n_runs in (at - 1, at):
                    blocks.clear()
                    stats = monte_carlo(inst, plan, policy, n_runs, 3, latency=latency)
                    expected = looped_stats(inst, plan, policy, n_runs, 3, latency=latency)
                    assert stats.as_dict() == expected
                    assert blocks == ([at] if n_runs == at else [])
                    if case in ("pocket-invalid", "swap") and policy == "dummy":
                        assert stats.mean_collisions > 0
                # a buffer that holds half the runs' draws splits them into blocks
                width = LockStep(RunLoop(inst, plan, policy), default_horizon_cap(plan)).width
                with monkeypatch.context() as small:
                    small.setattr(simulate, "MC_BUFFER_BYTES", 8 * width * (at // 2))
                    blocks.clear()
                    assert monte_carlo(inst, plan, policy, at, 3, latency=latency).as_dict() \
                        == expected
                    assert len(blocks) > 1 and sum(blocks) == at
                # capped at the mean makespan, some runs finish and others time
                # out, unless every run takes the same steps
                cap = round(stats.mean_makespan)
                capped = monte_carlo(inst, plan, policy, at, 3, cap, latency)
                assert capped.as_dict() == looped_stats(inst, plan, policy, at, 3, cap, latency)
                assert 0 < capped.timeouts < at if stats.ci95 else capped.timeouts == 0

    @pytest.mark.parametrize("n_vertices, starts", [(2, (0,)), (3, (0, 1, 2))])
    def test_single_state_paths_run_on_the_loop(self, n_vertices, starts, blocks):
        # every path a single state: each run is done at step 0, in lock
        # step's work range too
        g = Graph.from_edges(n_vertices, [(k, k + 1) for k in range(n_vertices - 1)])
        inst = Instance(g, tuple(AgentSpec(i, s, s, 0.5) for i, s in enumerate(starts)))
        plan = Plan(tuple(Path((s,)) for s in starts))
        for policy in POLICIES:
            n_runs = lockstep_runs(plan, policy)
            for latency in (0, 1, 2):
                stats = monte_carlo(inst, plan, policy, n_runs, 3, latency=latency)
                assert stats.as_dict() == looped_stats(inst, plan, policy, n_runs, 3,
                                                       latency=latency)
                assert stats.mean_makespan == 0 and stats.timeouts == 0
        assert blocks == []

    @pytest.mark.parametrize("case, contested", [
        ("swap", {(0, 1), (0, 2), (1, 0), (1, 1)}),   # head-on along C2-C3-C4
        ("crossing", {(0, 3), (1, 0)}),
        # agent 0 goes back along its own pocket edge, which no other path crosses
        ("pocket-valid", set()),
    ])
    def test_contested_moves(self, case, contested):
        # only a move along an edge that another path crosses the other way
        # can swap, so lock step stamps only those: (agent, local state) pairs
        inst, plan = lockstep_cases()[case]
        lock = LockStep(RunLoop(inst, plan, "dummy"), default_horizon_cap(plan))
        L = len(lock.vertex) // lock.m
        assert {divmod(int(s), L) for s in np.flatnonzero(lock.contested)} == contested

    def test_gate_reads_two_senders(self):
        # only an invalid plan has a state that waits on two senders: on a
        # valid one every earlier visitor of a vertex is chained
        inst, plan = lockstep_cases()["star"]
        assert max(len(w) for per_x in mcp_schedule(plan).values() for w in per_x) == 2
        lock = LockStep(RunLoop(inst, plan, "mcp"), default_horizon_cap(plan))
        assert lock.wait_j.shape[1] == 2
        stats = monte_carlo(inst, plan, "mcp", 200, 3)
        assert stats.timeouts == 0 and stats.messages == lock.messages == 8

    def test_refills_continue_each_stream(self, monkeypatch):
        # a buffer of one draw per agent refills rows at almost every step
        init = LockStep.__init__

        def narrow(self, *args):
            init(self, *args)
            self.width = self.m

        monkeypatch.setattr(LockStep, "__init__", narrow)
        inst, plan = lockstep_cases()["random-0"]
        for policy in POLICIES:
            at = lockstep_runs(plan, policy)
            assert monte_carlo(inst, plan, policy, at, 5, latency=1).as_dict() \
                == looped_stats(inst, plan, policy, at, 5, latency=1)

    def test_lagged_view_memory_independent_of_latency(self):
        # a latency far past the horizon cap of 1,000: under mcp and fsp no
        # message lands, so every run times out, and dummy reads no view
        inst, plan = lockstep_cases()["random-0"]
        for policy in POLICIES:
            n_runs = lockstep_runs(plan, policy)
            tracemalloc.start()
            try:
                stats = monte_carlo(inst, plan, policy, n_runs, 2, latency=20_000).as_dict()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 << 20, (policy, peak)
            expected = looped_stats(inst, plan, policy, n_runs, 2, latency=20_000)
            if policy == "dummy":
                assert stats == expected
            else:
                assert stats["timeouts"] == expected["timeouts"] == n_runs
                for key in ("mean_makespan", "ci95"):   # NaN: no run is done
                    assert math.isnan(stats.pop(key)) and math.isnan(expected.pop(key))
                assert stats == expected

    def test_buffer_width_within_horizon_cap(self):
        # one agent, 29 moves at p = 0.999: about 29,000 draws on average, but
        # a run stops at the horizon cap of 1,450 steps, one draw each
        inst, plan = line_instance(30, p=0.999), Plan((Path(tuple(range(30))),))
        cap = default_horizon_cap(plan)
        assert LockStep(RunLoop(inst, plan, "dummy"), cap).width <= cap * plan.n_agents
        n_runs = lockstep_runs(plan, "dummy")
        stats = monte_carlo(inst, plan, "dummy", n_runs, 1)
        assert stats.timeouts == n_runs
        assert stats.as_dict() == looped_stats(inst, plan, "dummy", n_runs, 1)

    @given(paths=ARBITRARY_PATHS, policy=st.sampled_from(POLICIES),
           latency=st.integers(0, 3), seed=st.integers(0, 2**32), capped=st.booleans())
    @settings(max_examples=60)
    def test_arbitrary_plans(self, paths, policy, latency, seed, capped):
        inst, plan = arbitrary_case(paths)
        cap = plan.max_index + 1 if capped else None
        n_runs = lockstep_runs(plan, policy)
        assert monte_carlo(inst, plan, policy, n_runs, seed, cap, latency).as_dict() \
            == looped_stats(inst, plan, policy, n_runs, seed, cap, latency)

    def test_deadlock_names_the_first_run(self, monkeypatch):
        # a hand-made cyclic schedule no plan yields: agent 0 in state 2 waits
        # for agent 1's state 2, and agent 1 in state 1 for agent 0's state 3.
        # A run deadlocks within the cap only if agent 0 makes both its moves
        # at once, with probability 0.01.  Under seed 27 run 52 is the
        # first of the 300 runs
        plan = Plan((Path((0, 1, 2, 2)), Path((5, 5, 5))))
        waits = {0: [(), (), ((1, 2),), ()],
                 1: [((0, 2),), ((0, 3),), ()]}
        monkeypatch.setattr(simulate, "mcp_schedule", lambda plan: waits)
        inst = SimpleNamespace(agents=[SimpleNamespace(delay_prob=p) for p in (0.9, 0.5)])
        message = "deadlock during mcp execution (run 52)"
        for run in (monte_carlo, looped_stats):
            with pytest.raises(RuntimeError, match=rf"^{re.escape(message)}$"):
                run(inst, plan, "mcp", 300, 27, 4)
        assert monte_carlo(inst, plan, "mcp", 52, 27, 4).as_dict() == \
            looped_stats(inst, plan, "mcp", 52, 27, 4)


class TestRunSeeds:
    @given(ks=st.dictionaries(st.integers(0, 2**200),
                              st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5,
                                       unique=True),
                              min_size=1, max_size=4))
    @example(ks={0: [2**32 - 1], 1: [0]})   # the last run of one seed, the first of the next
    @example(ks={2**200: [0, 2**32 - 1]})
    def test_plain_rule(self, ks):
        seeds = {(seed, k): s for seed, runs in ks.items()
                 for k, s in zip(runs, run_seeds(seed, runs))}
        assert all(s == (seed + 1) * 2**32 + k for (seed, k), s in seeds.items())
        assert len(set(seeds.values())) == len(seeds)
        assert min(seeds.values()) >= 2**32
        mt = np.random.RandomState(0)
        row = np.empty(1)
        for (seed, k), s in seeds.items():
            fill_draws(row, s, 0, mt)
            assert run_seed(seed, k).random() == row[0]

    @pytest.mark.parametrize("seed, k, first", [
        (0, 0, 0.11299430095636409),
        (7, 3, 0.26115269858678347),
        (2**32, 1, 0.8743142201958094),
        (2**130 + 99, 199, 0.11839862706482507),
        (12345, 2**20, 0.19921199002739554),
    ])
    def test_run_streams_unchanged(self, seed, k, first):
        assert run_seed(seed, k).random() == first

    @pytest.mark.parametrize("seed", [2**32, 2**40 + 3, 2**64 - 1])
    def test_fill_matches_python_stream(self, seed):
        rng = random.Random(seed)
        stream = [rng.random() for _ in range(700)]
        mt = np.random.RandomState(0)
        row = np.empty(500)
        fill_draws(row, seed, 0, mt)
        assert row.tolist() == stream[:500]
        # a refill continues the stream past the draws taken
        fill_draws(row[:400], seed, 300, mt)
        assert row[:400].tolist() == stream[300:]

    # numpy seeds a one-word key by init_genrand, not Python's init_by_array
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_fill_rejects_one_word_seeds(self, seed):
        with pytest.raises(ValueError, match=r"^fill_draws needs a seed >= 2\*\*32, got \d+$"):
            fill_draws(np.empty(5), seed, 0, np.random.RandomState(0))


class TestStatsCi:
    def test_constant_samples(self):
        assert stats_ci([2, 2, 2]) == (2.0, 0.0)

    def test_hand_arithmetic(self):
        mean, half = stats_ci([0, 4])
        assert mean == 2.0
        assert half == pytest.approx(1.96 * 2 * math.sqrt(2) / math.sqrt(2), abs=1e-9)

    def test_single_sample(self):
        assert stats_ci([7.5]) == (7.5, 0.0)

    def test_no_samples(self):
        with pytest.raises(ValueError, match=r"^need at least one sample, got 0$"):
            stats_ci([])


def test_state_property_on_solved_plans():
    # valid plans: two agents sharing a vertex do so at indices >= 2 apart
    for seed in range(5):
        inst = generate_random_instance(8, 8, 0.1, 4, (0, 0.5), seed)
        result = solve_ame(inst)
        assert result.solved
        plan = result.plan
        for i, pi in enumerate(plan.paths):
            for j, pj in enumerate(plan.paths):
                if i == j:
                    continue
                for x, vx in enumerate(pi.vertices):
                    for y, vy in enumerate(pj.vertices):
                        if vx == vy:
                            assert y not in (x, x + 1)


def draws_before_move(plan, snapshots, j, y):
    """The draws a run takes before j's move from state y - 1 to y, read
    from its snapshots: one per move that changes vertex, in agent order
    within a step.  Every move of the run must have succeeded."""
    verts = [p.vertices for p in plan.paths]
    n = 0
    for before, after in zip(snapshots, snapshots[1:]):
        for k, (x, nx) in enumerate(zip(before, after)):
            if k == j and (x, nx) == (y - 1, y):
                return n
            n += nx > x and verts[k][x] != verts[k][nx]
    raise AssertionError(f"agent {j} never entered state {y}")


def held_run(plan, schedule, j, y):
    """An mcp run, latency 0, in which j's move from y - 1 to y and every
    later move of j fail, and every other move succeeds.

    Up to that move the run is the one in which every move succeeds, which
    gives the number of draws to let pass.  From there on, draws of 0.5 fail
    only j, whose delay probability is 0.9 against 0.1 for the others."""
    cap = plan.sum_indices + 1
    probs = SimpleNamespace(agents=[SimpleNamespace(delay_prob=0.9 if k == j else 0.1)
                                    for k in range(plan.n_agents)])
    free = run_execution(probs, plan, "mcp", SimpleNamespace(random=lambda: 1.0),
                         schedule=schedule)
    passed = draws_before_move(plan, free.snapshots, j, y)
    rng = StubRng([1.0] * passed + [0.5] * (cap * plan.n_agents))
    trace = run_execution(probs, plan, "mcp", rng, schedule=schedule, horizon_cap=cap)
    assert trace.snapshots[-1][j] == y - 1
    return trace


def without_wait(schedule, j, y, i, x):
    """`schedule` less the wait of i in state x - 1 for j's message from y."""
    waits = {k: list(per_x) for k, per_x in schedule.items()}
    waits[i][x - 1] = tuple(w for w in waits[i][x - 1] if w != (j, y))
    return waits


class TestEveryMessageNeeded:
    """Each mcp message is needed: for each reduced edge (j, y) -> (i, x),
    hold j in state y - 1 for good and let every other move succeed.

    Without that one wait, i enters x, at l_i(x) = l_j(y - 1), where j
    stays: a collision.  Proof sketch: no other predecessor of (i, x) in the
    reduction succeeds (j, y), or the edge would be implied and removed, so
    every wait of i up to x is met without j entering y.  With the full
    schedule, no run in which one agent is held collides.  Valid plans make
    every sender state's entry a move, so a failed draw can hold j there."""

    @pytest.mark.parametrize("case", range(4))
    def test_dropping_any_one_wait_collides(self, case):
        _, plan = solved_plans()[case]
        reduced = transitive_reduction(build_partial_order(plan))
        schedule = message_schedule(reduced, plan)
        edges = sorted(reduced.inter_agent_edges)
        assert edges
        for (j, y), (i, x) in edges:
            v = plan.paths[j].vertices[y - 1]
            assert v != plan.paths[j].vertices[y] and v == plan.paths[i].vertices[x]
            assert not held_run(plan, schedule, j, y).collisions
            collisions = held_run(plan, without_wait(schedule, j, y, i, x), j, y).collisions
            assert any({c.agent_i, c.agent_j} == {i, j} and c.location == (v,)
                       for c in collisions), ((j, y), (i, x))
