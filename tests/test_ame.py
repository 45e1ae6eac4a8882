import math

import pytest

from mapf_dp import (AgentSpec, Graph, Instance, Path, Plan,
                     approximate_average_makespan, compute_labels,
                     find_earliest_conflict, generate_random_instance,
                     solve_ame, validate_plan)
from mapf_dp.ame import (Constraint, LowLevelFailure, SolveLimits,
                         _OtherAgents, branch_constraints, low_level_search)
from mapf_dp.dependency import move_cost
from mapf_dp.model import ConflictKind, Occupancy, shortest_path_distances
from tests.conftest import C2, POCKET


def enumerate_goal_paths(graph, start, goal, horizon):
    """All start-to-goal walks (waits allowed) with at most `horizon` steps."""
    out = []

    def extend(path):
        v = path[-1]
        if v == goal:
            out.append(tuple(path))
        if len(path) > horizon:
            return
        for nv in (v,) + graph.adjacency[v]:
            path.append(nv)
            extend(path)
            path.pop()

    extend([start])
    return out


def optimal_key_by_enumeration(instance, horizon):
    """Minimum approximate average makespan over all valid two-agent plans."""
    g = instance.graph
    a0, a1 = instance.agents
    probs = [a0.delay_prob, a1.delay_prob]
    best = math.inf
    for p0 in enumerate_goal_paths(g, a0.start, a0.goal, horizon):
        for p1 in enumerate_goal_paths(g, a1.start, a1.goal, horizon):
            plan = Plan((Path(p0), Path(p1)))
            if find_earliest_conflict(plan) is not None:
                continue
            labeled = compute_labels(plan, probs)
            best = min(best, approximate_average_makespan(labeled))
    return best


class TestBranchConstraints:
    def test_vertex_conflict_constrains_both_at_same_index(self):
        from mapf_dp.model import Conflict
        c = Conflict(ConflictKind.VERTEX, 0, 1, 7, 3)
        assert branch_constraints(c) == (Constraint(0, 7, 3),
                                         Constraint(1, 7, 3))

    def test_follow_conflict_splits_indices(self, pocket_invalid_plan):
        c = find_earliest_conflict(pocket_invalid_plan)
        assert c.kind is ConflictKind.FOLLOW
        lead, trail = branch_constraints(c)
        # leading agent 1 is banned from c2 at state 1, trailing agent 0 at 0
        assert lead == Constraint(1, C2, 1)
        assert trail == Constraint(0, C2, 0)


def count_path_conflicts(prefix, other_paths):
    """The low level's accumulated conflict count of a path prefix: the
    occupancy index's per-state increment, summed over the prefix."""
    occ = Occupancy(other_paths)
    return sum(occ.conflict_increment(v, x) for x, v in enumerate(prefix))


class TestCountPathConflicts:
    def test_empty_others(self):
        assert count_path_conflicts((1, 2, 3), []) == 0

    def test_hand_example_follow_only(self):
        # prefix passes through vertex 2 one step after the other leaves it
        assert count_path_conflicts((1, 2), [Path((2, 3))]) == 1

    def test_hand_example_identical_stationary(self):
        assert count_path_conflicts((5, 5), [Path((5, 5))]) == 5

    def test_parked_goal_counts_through_padding(self):
        # other parks at 4 from index 1 on; prefix enters 4 at index 3
        assert count_path_conflicts((0, 1, 2, 4), [Path((3, 4))]) == 3

    def test_zero_on_valid_plan_paths(self, pocket_valid_plan):
        p0, p1 = pocket_valid_plan.paths
        assert count_path_conflicts(p0.vertices, [p1]) == 0
        assert count_path_conflicts(p1.vertices, [p0]) == 0


class TestOtherAgents:
    def test_wait_bound_requires_two_index_gap(self):
        others = _OtherAgents([Path((0, 1, 2), labels=(0.0, 2.0, 4.0))], 1)
        assert others.wait_bound(0, 1) == -math.inf
        assert others.wait_bound(0, 2) == 2.0   # departure label of state 1
        assert others.wait_bound(1, 2) == -math.inf
        assert others.wait_bound(1, 3) == 4.0

    def test_final_state_is_not_a_departure(self):
        others = _OtherAgents([Path((0, 1, 2), labels=(0.0, 2.0, 4.0))], 1)
        assert others.wait_bound(2, 10) == -math.inf

    def test_unvisited_vertex(self):
        others = _OtherAgents([Path((0, 1), labels=(0.0, 2.0))], 1)
        assert others.wait_bound(9, 5) == -math.inf

    def test_prefix_max_over_repeat_visits(self):
        others = _OtherAgents([Path((0, 1, 0, 1, 2),
                                    labels=(0.0, 2.0, 4.0, 6.0, 8.0))], 1)
        # vertex 0 visited at x''=0 (departure 2.0) and x''=2 (departure 6.0)
        assert others.wait_bound(0, 2) == 2.0
        assert others.wait_bound(0, 4) == 6.0

    def test_unlabeled_path_names_its_agent(self):
        labeled = Path((0, 1), labels=(0.0, 2.0))
        with pytest.raises(ValueError, match="agent 2"):
            # others of agent 1 are agents 0 and 2, in id order
            _OtherAgents([labeled, Path((3, 4))], 1)

    def test_low_level_rejects_unlabeled_others(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5), AgentSpec(1, 1, 1, 0.5)))
        with pytest.raises(ValueError, match="agent 1"):
            low_level_search(inst, 0, [Path((1,))], (), 0.0,
                             shortest_path_distances(g, 2))


class TestLowLevel:
    def test_single_agent_closed_form(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        inst = Instance(g, (AgentSpec(0, 0, 3, 0.5),))
        dist = shortest_path_distances(g, 3)
        path, _ = low_level_search(inst, 0, [], (), 0.0, dist)
        assert path.vertices == (0, 1, 2, 3)
        assert path.labels == (0.0, 2.0, 4.0, 6.0)

    def test_heuristic_scaling_with_delay(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        p = 0.75
        inst = Instance(g, (AgentSpec(0, 0, 2, p),))
        path, _ = low_level_search(inst, 0, [], (), 0.0,
                                   shortest_path_distances(g, 2))
        assert path.labels[-1] == pytest.approx(2 * move_cost(p))

    def test_constraints_obeyed(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 3, 0.5),))
        dist = shortest_path_distances(g, 3)
        cons = (Constraint(0, 1, 1),)
        path, _ = low_level_search(inst, 0, [], cons, 0.0, dist)
        assert path.vertices[1] != 1
        assert path.vertices[-1] == 3

    def test_goal_constraint_forces_longer_stay(self):
        g = Graph.from_edges(2, [(0, 1)])
        inst = Instance(g, (AgentSpec(0, 0, 1, 0.5),))
        dist = shortest_path_distances(g, 1)
        # goal banned at states 1 and 2: path must end at index >= 3
        cons = (Constraint(0, 1, 1), Constraint(0, 1, 2))
        path, _ = low_level_search(inst, 0, [], cons, 0.0, dist)
        assert path.vertices[-1] == 1
        assert path.last_index >= 3
        assert path.vertices[1] != 1 and path.vertices[2] != 1

    def test_unreachable_goal_exhausts(self):
        g = Graph.from_edges(3, [(0, 1)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5),))
        dist = shortest_path_distances(g, 2)
        with pytest.raises(LowLevelFailure) as err:
            low_level_search(inst, 0, [], (), 0.0, dist)
        assert err.value.cause == "exhausted"

    def test_budget_failure(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        inst = Instance(g, (AgentSpec(0, 0, 3, 0.5),))
        dist = shortest_path_distances(g, 3)
        with pytest.raises(LowLevelFailure) as err:
            low_level_search(inst, 0, [], (), 0.0, dist, expansion_cap=1)
        assert err.value.cause == "budget"

    def test_waits_for_labeled_blocker(self):
        # corridor 0-1-2; the other agent departs vertex 1 late, so entering
        # behind it costs max(own g, departure label) + move time
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5),
                            AgentSpec(1, 1, 1, 0.5)))
        other = Path((1, 1, 1, 2, 1), labels=(0.0, 1.0, 2.0, 10.0, 12.0))
        dist = shortest_path_distances(g, 2)
        path, _ = low_level_search(inst, 0, [other], (), 0.0, dist)
        assert validate_plan(inst, Plan((path, other))).path_errors == []
        for x in range(1, len(path.labels)):
            lo = path.labels[x] - path.labels[x - 1]
            assert lo >= 1.0 - 1e-9


class TestSolveAme:
    def test_pocket_swap(self, pocket_instance):
        result = solve_ame(pocket_instance)
        assert result.solved
        report = validate_plan(pocket_instance, result.plan)
        assert report.is_valid
        # agent 0 has to clear the corridor through the pocket cell
        assert POCKET in result.plan.paths[0].vertices
        assert result.key == pytest.approx(
            approximate_average_makespan(result.plan))

    def test_single_agent_key(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        inst = Instance(g, (AgentSpec(0, 0, 3, 0.5),))
        result = solve_ame(inst)
        assert result.solved
        assert result.key == pytest.approx(6.0)

    def test_unsolvable_reported(self):
        g = Graph.from_edges(3, [(0, 1)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5),))
        assert solve_ame(inst).status == "no-solution"

    def test_budget_exhaustion_is_timeout(self, pocket_instance):
        limits = SolveLimits(low_level_expansions=1)
        assert solve_ame(pocket_instance, limits).status == "timeout"

    def test_time_limit(self):
        inst = generate_random_instance(20, 20, 0.1, 10, (0, 0.5), 0)
        limits = SolveLimits(time_s=0.0)
        assert solve_ame(inst, limits).status == "timeout"

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_valid_and_consistent(self, seed):
        inst = generate_random_instance(12, 12, 0.1, 6, (0, 0.5), seed)
        result = solve_ame(inst, SolveLimits(time_s=20.0))
        assert result.solved
        assert validate_plan(inst, result.plan).is_valid
        fresh = compute_labels(result.plan, [a.delay_prob for a in inst.agents])
        assert approximate_average_makespan(fresh) >= result.key - 1e-9

    def test_recompute_labels_variant(self, pocket_instance):
        result = solve_ame(pocket_instance, recompute_labels=True)
        assert result.solved
        assert validate_plan(pocket_instance, result.plan).is_valid
        fresh = compute_labels(result.plan,
                               [a.delay_prob for a in pocket_instance.agents])
        assert result.key == pytest.approx(approximate_average_makespan(fresh))

    def test_near_optimal_on_enumerable_instances(self, pocket_instance):
        cases = [pocket_instance]
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5),
                                 (0, 3), (1, 4), (2, 5)])
        cases.append(Instance(g, (AgentSpec(0, 0, 2, 0.5),
                                  AgentSpec(1, 2, 0, 0.5))))
        cases.append(Instance(g, (AgentSpec(0, 0, 5, 0.3),
                                  AgentSpec(1, 5, 0, 0.6))))
        for inst in cases:
            best = optimal_key_by_enumeration(inst, horizon=6)
            result = solve_ame(inst)
            assert result.solved
            assert result.key <= 1.25 * best + 1e-9


def test_children_satisfy_their_branching_constraint(pocket_instance):
    # replanning under a constraint never reintroduces the banned slot
    result = solve_ame(pocket_instance)
    assert result.solved
    plan = result.plan
    for i, path in enumerate(plan.paths):
        assert path.vertices[0] == pocket_instance.agents[i].start
        assert path.vertices[-1] == pocket_instance.agents[i].goal
