import functools
import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapf_dp import (AgentSpec, Graph, Instance, MessageSchedule, Path, Plan, RunStats,
                     WarehouseParams, generate_random_instance, generate_warehouse_instance,
                     monte_carlo, run_execution, simulate, solve_ame, stats_ci)
from mapf_dp.dependency import build_partial_order, message_schedule, transitive_reduction
from mapf_dp.simulate import (MC_LOCKSTEP_WORK, POLICIES, LockStep, default_horizon_cap,
                               fill_draws, mcp_schedule, run_seed, run_seeds)
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
    tr = run_execution(instance, plan, policy, rng, record=True, **kw)
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
        assert mcp_schedule(pocket_long_plan).waits[1][3] == ((0, 3),)
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
            assert run_execution(inst, plan, "mcp", run_seed(8, k), record=True).snapshots \
                == run_execution(inst, plan, "dummy", run_seed(8, k), record=True).snapshots


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

    def test_trace_recording(self, pocket_instance, pocket_valid_plan):
        tr = run_execution(pocket_instance, pocket_valid_plan, "mcp",
                           run_seed(0, 0), record=True)
        assert tr.snapshots[0] == (0, 0)
        assert tr.snapshots[-1] == tuple(
            p.last_index for p in pocket_valid_plan.paths)
        assert len(tr.snapshots) == tr.makespan + 1


    def test_deadlock_once_messages_have_landed(self):
        # a hand-made schedule no plan yields: agent 0 waits for agent 1's
        # state 2, agent 1 waits at state 1 for agent 0's state 1
        plan = Plan((Path((0, 0, 1)), Path((2, 2, 2))))
        sched = MessageSchedule(senders={(1, 1): (0,)},
                                waits={0: [((1, 2),), (), ()],
                                       1: [(), ((0, 1),), ()]},
                                total_messages=1)
        for latency in (0, 2):
            tr = run_execution(two_lines(plan), plan, "mcp", StubRng([]),
                               schedule=sched, latency=latency, record=True)
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
        sched = mcp_schedule(pocket_long_plan)
        for k in range(100):
            tr = run_execution(pocket_instance, pocket_long_plan, "mcp",
                               run_seed(12, k))
            assert tr.messages_sent == sched.total_messages == 3

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
                        latency=latency, record=True)
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

    def test_rejects_zero_runs(self, pocket_instance, pocket_valid_plan):
        with pytest.raises(ValueError):
            monte_carlo(pocket_instance, pocket_valid_plan, "mcp", 0, 1)

    def test_rejects_negative_seed(self, pocket_instance, pocket_valid_plan):
        with pytest.raises(ValueError, match="got -1$"):
            monte_carlo(pocket_instance, pocket_valid_plan, "mcp", 5, -1)

    def test_as_dict_order(self, pocket_instance, pocket_valid_plan):
        # `simulate` prints these keys in this order
        s = monte_carlo(pocket_instance, pocket_valid_plan, "mcp", 5, 1)
        assert list(s.as_dict()) == ["n_runs", "mean_makespan", "ci95", "messages",
                                     "mean_collisions", "timeouts", "policy"]
        assert s.as_dict() == {k: getattr(s, k) for k in s.as_dict()}


def looped_stats(instance, plan, policy, n_runs, seed, horizon_cap=None, latency=0):
    """`monte_carlo`'s statistics from a loop over `run_execution`, run k on
    `run_seed(seed, k)`; a deadlock raises as `monte_carlo` does."""
    traces = []
    for k in range(n_runs):
        tr = run_execution(instance, plan, policy, run_seed(seed, k),
                           horizon_cap=horizon_cap, latency=latency)
        if tr.status == "deadlock":
            raise RuntimeError(f"deadlock during {policy} execution (run {k})")
        traces.append(tr)
    done = [tr for tr in traces if tr.status == "done"]
    mean, half = stats_ci(tr.makespan for tr in done) if done else (math.nan, math.nan)
    return RunStats(n_runs, mean, half, done[-1].messages_sent if done else 0,
                    stats_ci(len(tr.collisions) for tr in traces)[0],
                    n_runs - len(done), policy).as_dict()


@functools.cache
def lockstep_cases():
    corridor = Graph.from_edges(5, [(C1, C2), (C2, C3), (C3, C4), (POCKET, C2)])
    pocket = Instance(corridor, (AgentSpec(0, C2, C3, 0.5), AgentSpec(1, C1, C4, 0.3)))
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


class TestLockStep:
    """From its policy's `MC_LOCKSTEP_WORK` runs x agents on, `monte_carlo`
    advances its runs in lock step; its statistics must equal, bit for bit, those of a
    loop over `run_execution`."""

    @pytest.mark.parametrize("case", ["random-0", "random-1", "warehouse", "pocket-valid",
                                      "pocket-invalid", "swap", "one-agent"])
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
                schedule = mcp_schedule(plan) if policy == "mcp" else None
                width = LockStep(inst, plan, policy, schedule, default_horizon_cap(plan)).width
                with monkeypatch.context() as small:
                    small.setattr(simulate, "MC_BUFFER_BYTES", 8 * width * (at // 2))
                    blocks.clear()
                    assert monte_carlo(inst, plan, policy, at, 3, latency=latency).as_dict() \
                        == expected
                    assert len(blocks) > 1 and sum(blocks) == at
                # capped at the mean makespan, some runs finish and others time out
                cap = round(stats.mean_makespan)
                capped = monte_carlo(inst, plan, policy, at, 3, cap, latency)
                assert capped.as_dict() == looped_stats(inst, plan, policy, at, 3, cap, latency)
                assert 0 < capped.timeouts < at

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

    def test_buffer_width_within_horizon_cap(self):
        # one agent, 29 moves at p = 0.999: about 29,000 draws on average, but
        # a run stops at the horizon cap of 1,450 steps, one draw each
        inst, plan = line_instance(30, p=0.999), Plan((Path(tuple(range(30))),))
        cap = default_horizon_cap(plan)
        assert LockStep(inst, plan, "dummy", None, cap).width <= cap * plan.n_agents
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
        # at once, with probability 0.01.  Under seed 27 run 170 is the
        # first of the 300 runs
        plan = Plan((Path((0, 1, 2, 2)), Path((5, 5, 5))))
        sched = MessageSchedule(senders={(0, 2): (1,), (0, 3): (1,), (1, 2): (0,)},
                                waits={0: [(), (), ((1, 2),), ()],
                                       1: [((0, 2),), ((0, 3),), ()]},
                                total_messages=3)
        monkeypatch.setattr(simulate, "mcp_schedule", lambda plan: sched)
        inst = SimpleNamespace(agents=[SimpleNamespace(delay_prob=p) for p in (0.9, 0.5)])
        message = "deadlock during mcp execution (run 170)"
        for run in (monte_carlo, looped_stats):
            with pytest.raises(RuntimeError, match=rf"^{re.escape(message)}$"):
                run(inst, plan, "mcp", 300, 27, 4)
        assert monte_carlo(inst, plan, "mcp", 170, 27, 4).as_dict() == \
            looped_stats(inst, plan, "mcp", 170, 27, 4)


class TestRunSeeds:
    @given(seed=st.integers(0, 2**200), k=st.integers(0, 2**20))
    @example(seed=2**32 - 1, k=0)
    @example(seed=2**32, k=1)
    @example(seed=2**128 - 1, k=2)
    @example(seed=2**128, k=3)   # from here on the entropy outgrows the pool of 4 words
    @example(seed=7, k=2**40 + 5)   # a spawn key of two words
    def test_matches_seed_sequence(self, seed, k):
        state = np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(2, np.uint64)
        assert run_seeds(seed, [k]) == [int(state[0])]

    @pytest.mark.parametrize("seed, k, first", [
        (0, 0, 0.12127378443739556),
        (7, 3, 0.6127673800026916),
        (2**32, 1, 0.7126901822670587),
        (2**130 + 99, 199, 0.3357967107957721),
        (12345, 2**20, 0.7323483060086016),
    ])
    def test_run_streams_unchanged(self, seed, k, first):
        assert run_seed(seed, k).random() == first

    # below 2**32 the fill takes Python's generator, from there on numpy's
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1])
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


class TestStatsCi:
    def test_constant_samples(self):
        assert stats_ci([2, 2, 2]) == (2.0, 0.0)

    def test_hand_arithmetic(self):
        mean, half = stats_ci([0, 4])
        assert mean == 2.0
        assert half == pytest.approx(1.96 * 2 * math.sqrt(2) / math.sqrt(2), abs=1e-9)

    def test_single_sample(self):
        assert stats_ci([7.5]) == (7.5, 0.0)


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
                         schedule=schedule, record=True)
    passed = draws_before_move(plan, free.snapshots, j, y)
    rng = StubRng([1.0] * passed + [0.5] * (cap * plan.n_agents))
    trace = run_execution(probs, plan, "mcp", rng, schedule=schedule, horizon_cap=cap,
                          record=True)
    assert trace.snapshots[-1][j] == y - 1
    return trace


def without_wait(schedule, j, y, i, x):
    """`schedule` less the wait of i in state x - 1 for j's message from y."""
    waits = {k: list(per_x) for k, per_x in schedule.waits.items()}
    waits[i][x - 1] = tuple(w for w in waits[i][x - 1] if w != (j, y))
    senders = dict(schedule.senders)
    senders[(j, y)] = tuple(r for r in senders[(j, y)] if r != i)
    return MessageSchedule(senders, waits, schedule.total_messages - 1)


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
