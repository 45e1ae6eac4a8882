import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from mapf_dp import adapted_cbs, ame
from mapf_dp import (AgentSpec, Graph, Instance, generate_random_instance,
                     solve_adapted_cbs, validate_plan)
from mapf_dp.adapted_cbs import shortest_path_under_constraints
from mapf_dp.ame import Constraint, LowLevelFailure, SolveLimits, conflict_tree_search
from mapf_dp.generate import GenerationError
from mapf_dp.model import shortest_path_distances
from tests.brute_force_oracle import brute_force_optimal_makespan
from tests.conftest import C1, C2, C3, C4


class TestLowLevel:
    def test_single_agent_hop_distance(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        inst = Instance(g, (AgentSpec(0, 0, 3, 0.5),))
        path, _ = shortest_path_under_constraints(
            inst, 0, (), shortest_path_distances(g, 3))
        assert path.vertices == (0, 1, 2, 3)

    def test_constraint_forces_detour_or_wait(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5),))
        path, _ = shortest_path_under_constraints(
            inst, 0, (Constraint(0, 1, 1),), shortest_path_distances(g, 2))
        assert path.vertices[1] != 1
        assert path.vertices[-1] == 2
        assert path.last_index == 3

    def test_goal_constraint_delays_arrival(self):
        g = Graph.from_edges(2, [(0, 1)])
        inst = Instance(g, (AgentSpec(0, 0, 1, 0.5),))
        path, _ = shortest_path_under_constraints(
            inst, 0, (Constraint(0, 1, 1), Constraint(0, 1, 2)),
            shortest_path_distances(g, 1))
        assert path.last_index == 3
        assert path.vertices[-1] == 1

    def test_unreachable_exhausts(self):
        g = Graph.from_edges(3, [(0, 1)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5),))
        with pytest.raises(LowLevelFailure):
            shortest_path_under_constraints(
                inst, 0, (), shortest_path_distances(g, 2))


class TestBruteForce:
    def test_already_at_goals(self):
        g = Graph.from_edges(2, [(0, 1)])
        inst = Instance(g, (AgentSpec(0, 0, 0, 0.5),))
        assert brute_force_optimal_makespan(inst, 5) == 0

    def test_single_agent_line(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        inst = Instance(g, (AgentSpec(0, 0, 3, 0.5),))
        assert brute_force_optimal_makespan(inst, 10) == 3

    def test_head_on_swap_impossible(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5),
                            AgentSpec(1, 2, 0, 0.5)))
        assert brute_force_optimal_makespan(inst, 20) is None

    def test_following_into_vacated_vertex_forbidden(self):
        # a two-agent column on a line cannot advance in lockstep
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        inst = Instance(g, (AgentSpec(0, 1, 3, 0.5),
                            AgentSpec(1, 0, 2, 0.5)))
        # lockstep would take 2; the trailing agent must keep a gap of one step
        assert brute_force_optimal_makespan(inst, 10) == 3


class TestSolver:
    def test_pocket_swap_matches_oracle(self, pocket_instance):
        result = solve_adapted_cbs(pocket_instance)
        assert result.solved
        assert validate_plan(pocket_instance, result.plan).is_valid
        assert result.plan.max_index \
            == brute_force_optimal_makespan(pocket_instance, 15)

    def test_delay_probabilities_ignored(self, pocket_graph):
        def agents(p0, p1):
            return (AgentSpec(0, C2, C3, p0), AgentSpec(1, C1, C4, p1))
        a = solve_adapted_cbs(Instance(pocket_graph, agents(0.1, 0.9)))
        b = solve_adapted_cbs(Instance(pocket_graph, agents(0.9, 0.1)))
        assert a.solved and b.solved
        assert [p.vertices for p in a.plan.paths] \
            == [p.vertices for p in b.plan.paths]

    def test_head_on_swap_not_solved(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5),
                            AgentSpec(1, 2, 0, 0.5)))
        result = solve_adapted_cbs(inst, SolveLimits(high_level_expansions=2000))
        assert not result.solved

    def test_unreachable_goal_no_solution(self):
        g = Graph.from_edges(3, [(0, 1)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5),))
        assert solve_adapted_cbs(inst).status == "no-solution"

    def test_budget_exhaustion_is_timeout(self, pocket_instance, monkeypatch):
        monkeypatch.setattr(ame, "LOW_LEVEL_EXPANSIONS", 1)
        assert solve_adapted_cbs(pocket_instance).status == "timeout"

    @pytest.mark.parametrize("seed", range(25))
    def test_optimal_on_tiny_instances(self, seed):
        inst = generate_random_instance(5, 5, 0.1, 3, (0, 0.5), seed)
        result = solve_adapted_cbs(inst, SolveLimits(time_s=20.0))
        assert result.solved
        assert validate_plan(inst, result.plan).is_valid
        oracle = brute_force_optimal_makespan(inst, result.plan.max_index + 4)
        assert result.plan.max_index == oracle

    @given(width=st.integers(2, 4), height=st.integers(2, 4), agents=st.integers(1, 3),
           blocked=st.sampled_from([0.0, 0.2]), seed=st.integers(0, 2**16))
    @settings(max_examples=150)
    def test_bypass_keeps_optimal_max_index(self, width, height, agents, blocked, seed):
        # wherever the joint search finds a plan, the search with bypass
        # nodes never ends unsolved, and when it solves, it returns a valid
        # plan of exactly that max index.  It may reach the node cap: about
        # one such instance in 65 (42 of 2,771 drawn alike) takes more than
        # 5,000 nodes with or without bypass, and 3x3, 3 agents, 20% blocked,
        # seed 92 (max index 10) more than 50,000 without it.  Nor does
        # bypass always take fewer nodes: 2x3, 3 agents, 20% blocked, seed 3
        # takes 6,724 with it and 3,582 without
        try:
            inst = generate_random_instance(width, height, blocked, agents, (0, 0.5), seed)
        except GenerationError:
            assume(False)
        oracle = brute_force_optimal_makespan(inst, 12)
        assume(oracle is not None)
        limits = SolveLimits(time_s=1e9, high_level_expansions=5000)
        result = solve_adapted_cbs(inst, limits)
        if result.status == "timeout":
            event("node cap reached")
            return
        assert result.solved
        assert validate_plan(inst, result.plan).is_valid
        assert result.plan.max_index == result.key == oracle


# (width = height, agents, generator seed): solved and node-capped searches
TABLE_CASES = [(6, 3, 1), (6, 5, 3), (6, 8, 0), (7, 5, 1), (7, 8, 1),
               (8, 5, 0), (8, 8, 0), (8, 8, 5)]
TABLE_LIMITS = SolveLimits(time_s=1e9, high_level_expansions=200)


def reference_cbs(instance, limits):
    """Adapted CBS that runs the low level on every call."""
    def replan(instance, agent, occupancy, constraints, key, dist_to_goal, cap):
        return adapted_cbs.shortest_path_under_constraints(
            instance, agent, constraints, dist_to_goal, cap)

    def evaluate(occ, conflicts):
        lengths = [p.last_index for p in occ.paths]
        return occ, float(max(lengths)), (max(lengths), sum(lengths))

    return conflict_tree_search(instance, limits, replan, evaluate, bypass=True)


def spy_low_level(monkeypatch):
    """Record ((agent, constraints), cause or vertices, expansions) of each
    low-level run, with the constraints as the solver passed them."""
    calls = []

    def spy(instance, agent, constraints, dist_to_goal, cap):
        key = agent, constraints
        try:
            path, expansions = shortest_path_under_constraints(
                instance, agent, constraints, dist_to_goal, cap)
        except LowLevelFailure as fail:
            calls.append((key, fail.cause, 0))
            raise
        calls.append((key, path.vertices, expansions))
        return path, expansions

    monkeypatch.setattr(adapted_cbs, "shortest_path_under_constraints", spy)
    return calls


def assert_same_search(result, reference):
    assert (result.status, result.high_level_expanded, result.key) \
        == (reference.status, reference.high_level_expanded, reference.key)
    if reference.plan is None:
        assert result.plan is None
    else:
        assert [p.vertices for p in result.plan.paths] \
            == [p.vertices for p in reference.plan.paths]


class TestPlanTable:
    """`solve_adapted_cbs` plans each (agent, own constraint set) once per
    solve; the reference plans on every call."""

    @pytest.mark.parametrize("size, agents, seed", TABLE_CASES)
    def test_matches_planning_every_time(self, monkeypatch, size, agents, seed):
        inst = generate_random_instance(size, size, 0.1, agents, (0, 0.5), seed)
        ref_calls = spy_low_level(monkeypatch)
        reference = reference_cbs(inst, TABLE_LIMITS)
        calls = spy_low_level(monkeypatch)
        result = solve_adapted_cbs(inst, TABLE_LIMITS)
        assert_same_search(result, reference)
        keys = [key for key, _, _ in calls]
        assert len(keys) == len(set(keys)) == len({key for key, _, _ in ref_calls})
        assert set(calls) <= set(ref_calls)
        assert result.low_level_expanded == sum(e for _, _, e in calls)
        assert result.low_level_expanded <= reference.low_level_expanded

    @pytest.mark.parametrize("size, agents, seed, budget",
                             [(6, 8, 0, 15), (8, 8, 0, 20), (8, 8, 5, 15)])
    def test_repeated_failure_raises_stored_cause(self, monkeypatch, size, agents,
                                                  seed, budget):
        monkeypatch.setattr(ame, "LOW_LEVEL_EXPANSIONS", budget)
        inst = generate_random_instance(size, size, 0.1, agents, (0, 0.5), seed)
        reference = reference_cbs(inst, TABLE_LIMITS)
        outcomes = []   # (own key, cause or vertices, raised failure or None)

        def recording_search(instance, limits, replan, evaluate, *, bypass):
            def recorded(instance, agent, occupancy, constraints, *rest):
                key = agent, constraints
                try:
                    path, expansions = replan(instance, agent, occupancy, constraints, *rest)
                except LowLevelFailure as fail:
                    outcomes.append((key, fail.cause, fail))
                    raise
                outcomes.append((key, path.vertices, None))
                return path, expansions
            return conflict_tree_search(instance, limits, recorded, evaluate, bypass=bypass)

        monkeypatch.setattr(adapted_cbs, "conflict_tree_search", recording_search)
        result = solve_adapted_cbs(inst, TABLE_LIMITS)
        assert_same_search(result, reference)
        first = {}
        for key, outcome, _ in outcomes:
            assert first.setdefault(key, outcome) == outcome
        failures = [(key, fail) for key, _, fail in outcomes if fail is not None]
        assert "budget" in {fail.cause for _, fail in failures}
        assert len({key for key, _ in failures}) < len(failures)   # repeats occur
        assert len({id(fail) for _, fail in failures}) == len(failures)   # each fresh
