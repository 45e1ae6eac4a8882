import pytest

from mapf_dp import ame
from mapf_dp import (AgentSpec, Graph, Instance,
                     brute_force_optimal_makespan, generate_random_instance,
                     solve_adapted_cbs, validate_plan)
from mapf_dp.adapted_cbs import shortest_path_under_constraints
from mapf_dp.ame import Constraint, LowLevelFailure, SolveLimits
from mapf_dp.model import shortest_path_distances
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
