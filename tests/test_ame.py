import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapf_dp import ame
from mapf_dp import (AgentSpec, Graph, Instance, Path, Plan,
                     approximate_average_makespan, compute_labels,
                     find_earliest_conflict, generate_random_instance,
                     solve_adapted_cbs, solve_ame, validate_plan)
from mapf_dp.ame import (Constraint, LowLevelFailure, SolveLimits,
                         branch_constraints, low_level_search)
from mapf_dp.dependency import move_cost
from mapf_dp.model import (Conflict, ConflictKind, enumerate_conflicts,
                           parse_map, shortest_path_distances)
from tests.conftest import C2, POCKET
from tests.low_level_oracle import low_level_search as two_heap_search
from tests.test_adapted_cbs import fresh_end, spy_low_level
from tests.test_occupancy import conflict_increment, wait_bound


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
    occ = Plan(other_paths)
    return sum(conflict_increment(occ, v, x) for x, v in enumerate(prefix))


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
    """The other agents as the low level reads them: a node's index without
    the replanned agent (here agent 1, which the index does not hold)."""

    def test_wait_bound_requires_two_index_gap(self):
        others = Plan([Path((0, 1, 2), labels=(0.0, 2.0, 4.0))])
        assert wait_bound(others, 1, 0, 1) == -math.inf
        assert wait_bound(others, 1, 0, 2) == 2.0   # departure label of state 1
        assert wait_bound(others, 1, 1, 2) == -math.inf
        assert wait_bound(others, 1, 1, 3) == 4.0

    def test_final_state_is_not_a_departure(self):
        others = Plan([Path((0, 1, 2), labels=(0.0, 2.0, 4.0))])
        assert wait_bound(others, 1, 2, 10) == -math.inf

    def test_unvisited_vertex(self):
        others = Plan([Path((0, 1), labels=(0.0, 2.0))])
        assert wait_bound(others, 1, 9, 5) == -math.inf

    def test_prefix_max_over_repeat_visits(self):
        others = Plan([Path((0, 1, 0, 1, 2),
                                 labels=(0.0, 2.0, 4.0, 6.0, 8.0))])
        # vertex 0 visited at x''=0 (departure 2.0) and x''=2 (departure 6.0)
        assert wait_bound(others, 1, 0, 2) == 2.0
        assert wait_bound(others, 1, 0, 4) == 6.0

    def test_unlabeled_path_names_its_agent(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        inst = Instance(g, (AgentSpec(0, 0, 1, 0.5), AgentSpec(1, 5, 5, 0.5),
                            AgentSpec(2, 3, 4, 0.5)))
        labeled = Path((0, 1), labels=(0.0, 2.0))
        with pytest.raises(ValueError, match="agent 2"):
            # others of agent 1 are agents 0 and 2, in id order
            low_level_search(inst, 1, Plan([labeled, Path((5,), (0.0,)), Path((3, 4))]),
                             (), 0.0, shortest_path_distances(g, 5))

    def test_low_level_rejects_unlabeled_others(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5), AgentSpec(1, 1, 1, 0.5)))
        with pytest.raises(ValueError, match="agent 1"):
            low_level_search(inst, 0, Plan([Path((0,), (0.0,)), Path((1,))]), (), 0.0,
                             shortest_path_distances(g, 2))


class TestLowLevel:
    def test_single_agent_closed_form(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        inst = Instance(g, (AgentSpec(0, 0, 3, 0.5),))
        dist = shortest_path_distances(g, 3)
        path, _ = low_level_search(inst, 0, Plan(()), (), 0.0, dist)
        assert path.vertices == (0, 1, 2, 3)
        assert path.labels == (0.0, 2.0, 4.0, 6.0)

    def test_heuristic_scaling_with_delay(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        p = 0.75
        inst = Instance(g, (AgentSpec(0, 0, 2, p),))
        path, _ = low_level_search(inst, 0, Plan(()), (), 0.0,
                                   shortest_path_distances(g, 2))
        assert path.labels[-1] == pytest.approx(2 * move_cost(p))

    def test_constraints_obeyed(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 3, 0.5),))
        dist = shortest_path_distances(g, 3)
        cons = (Constraint(0, 1, 1),)
        path, _ = low_level_search(inst, 0, Plan(()), cons, 0.0, dist)
        assert path.vertices[1] != 1
        assert path.vertices[-1] == 3

    def test_goal_constraint_forces_longer_stay(self):
        g = Graph.from_edges(2, [(0, 1)])
        inst = Instance(g, (AgentSpec(0, 0, 1, 0.5),))
        dist = shortest_path_distances(g, 1)
        # goal banned at states 1 and 2: path must end at index >= 3
        cons = (Constraint(0, 1, 1), Constraint(0, 1, 2))
        path, _ = low_level_search(inst, 0, Plan(()), cons, 0.0, dist)
        assert path.vertices[-1] == 1
        assert path.last_index >= 3
        assert path.vertices[1] != 1 and path.vertices[2] != 1

    def test_unreachable_goal_exhausts(self):
        g = Graph.from_edges(3, [(0, 1)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5),))
        dist = shortest_path_distances(g, 2)
        with pytest.raises(LowLevelFailure) as err:
            low_level_search(inst, 0, Plan(()), (), 0.0, dist)
        assert err.value.cause == "exhausted"

    def test_budget_failure(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        inst = Instance(g, (AgentSpec(0, 0, 3, 0.5),))
        dist = shortest_path_distances(g, 3)
        with pytest.raises(LowLevelFailure) as err:
            low_level_search(inst, 0, Plan(()), (), 0.0, dist, expansion_cap=1)
        assert err.value.cause == "budget"

    def test_waits_for_labeled_blocker(self):
        # corridor 0-1-2; the other agent departs vertex 1 late, so entering
        # behind it costs max(own g, departure label) + move time
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5),
                            AgentSpec(1, 1, 1, 0.5)))
        other = Path((1, 1, 1, 2, 1), labels=(0.0, 1.0, 2.0, 10.0, 12.0))
        dist = shortest_path_distances(g, 2)
        path, _ = low_level_search(inst, 0, Plan([Path((0,), (0.0,)), other]), (), 0.0, dist)
        assert validate_plan(inst, Plan((path, other))).path_errors == []
        for x in range(1, len(path.labels)):
            lo = path.labels[x] - path.labels[x - 1]
            assert lo >= 1.0 - 1e-9

    def test_own_old_path_is_left_out(self):
        # agent 0's old path leaves vertex 1 late, at label 30; replanned
        # to enter 1 only at index 3, agent 0 must wait for agent 1's
        # departures there, not for its own old one
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5), AgentSpec(1, 1, 1, 0.5)))
        other = Path((1, 1, 1, 2, 1), labels=(0.0, 1.0, 2.0, 10.0, 12.0))
        old = Path((0, 1, 1, 2), labels=(0.0, 20.0, 30.0, 40.0))
        dist = shortest_path_distances(g, 2)
        cons = (Constraint(0, 1, 1), Constraint(0, 1, 2))
        fresh, _ = low_level_search(inst, 0, Plan([Path((0,), (0.0,)), other]), cons, 0.0,
                                    dist)
        assert (fresh.vertices, fresh.labels) == ((0, 0, 0, 1, 2), (0.0, 1.0, 2.0, 4.0, 6.0))
        occ = Plan([old, other])
        assert low_level_search(inst, 0, occ, cons, 0.0, dist)[0] == fresh

    def test_own_unlabeled_old_path_is_left_out(self):
        # the replanned agent's old path is not read, so it needs no labels:
        # the search gives what it gives with a labeled old path
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 2, 0.5), AgentSpec(1, 1, 1, 0.5)))
        other = Path((1, 1, 1, 2, 1), labels=(0.0, 1.0, 2.0, 10.0, 12.0))
        labeled = Path((0, 1, 1, 2), labels=(0.0, 20.0, 30.0, 40.0))
        dist = shortest_path_distances(g, 2)
        cons = (Constraint(0, 1, 1), Constraint(0, 1, 2))
        expected = low_level_search(inst, 0, Plan([labeled, other]), cons, 0.0, dist)
        unlabeled = Plan([Path(labeled.vertices), other])
        assert low_level_search(inst, 0, unlabeled, cons, 0.0, dist) == expected


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

    def test_budget_exhaustion_is_timeout(self, pocket_instance, monkeypatch):
        monkeypatch.setattr(ame, "LOW_LEVEL_EXPANSIONS", 1)
        assert solve_ame(pocket_instance).status == "timeout"

    @pytest.mark.parametrize("solve, budget", [(solve_adapted_cbs, 15), (solve_ame, 30)])
    def test_budget_cut_children_end_in_timeout(self, monkeypatch, solve, budget):
        # solvable at the default budget; at this one, children are dropped
        # for the budget until the open list empties after a few nodes
        inst = generate_random_instance(6, 6, 0.1, 8, (0, 0.5), 0)
        assert solve(inst).solved
        monkeypatch.setattr(ame, "LOW_LEVEL_EXPANSIONS", budget)
        result = solve(inst)
        assert result.status == "timeout"
        assert 0 < result.high_level_expanded < SolveLimits().high_level_expansions

    @pytest.mark.parametrize("seed, hl, ll, kd", [(35, 33, 2994, 2), (7, 71, 3237, 8)])
    def test_key_decreases(self, seed, hl, ll, kd):
        # children whose key fell below their parent's by more than EPS;
        # children whose key equals their parent's do not count
        result = solve_ame(generate_random_instance(6, 6, 0.2, 4, (0.0, 0.5), seed))
        assert result.solved
        assert (result.high_level_expanded, result.low_level_expanded,
                result.key_decreases) == (hl, ll, kd)

    def test_time_limit(self):
        inst = generate_random_instance(20, 20, 0.1, 10, (0, 0.5), 0)
        limits = SolveLimits(time_s=1e-9)
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


@pytest.mark.parametrize("solve", [
    solve_ame,
    lambda inst, limits: solve_ame(inst, limits, recompute_labels=True),
    solve_adapted_cbs,
], ids=["ame", "ame-relabel", "adapted-cbs"])
def test_every_popped_node_carries_its_plans_conflicts(monkeypatch, solve):
    # conflict_tree_search hands each popped node's carried list to
    # find_earliest_conflict
    find = ame.find_earliest_conflict
    checked = []

    def checked_find(plan, conflicts):
        key = Conflict.sort_key
        assert sorted(conflicts, key=key) == sorted(enumerate_conflicts(plan), key=key)
        checked.append(len(conflicts))
        return find(plan, conflicts)

    monkeypatch.setattr(ame, "find_earliest_conflict", checked_find)
    for width, agents, seed in ((7, 8, 0), (7, 8, 3), (8, 10, 0), (8, 10, 1), (8, 10, 3)):
        inst = generate_random_instance(width, width, 0.1, agents, (0, 0.5), seed)
        solve(inst, SolveLimits(high_level_expansions=40))
    # most popped nodes are children, and most of those still conflict
    assert len(checked) > 60 and sum(n > 0 for n in checked) > 50


@pytest.mark.parametrize("solver", ["ame", "adapted-cbs"])
def test_low_level_gets_its_agents_own_constraints(monkeypatch, solver):
    # a node holds one constraint set per agent, and each replan receives the
    # replanned agent's set alone, here on a search that branches on several
    inst = generate_random_instance(20, 20, 0.1, 14, (0, 0.5), 3)
    if solver == "ame":
        calls, search = [], ame.low_level_search

        def spy(instance, agent, plan, constraints, *rest):
            calls.append((agent, constraints))
            return search(instance, agent, plan, constraints, *rest)

        monkeypatch.setattr(ame, "low_level_search", spy)
        assert solve_ame(inst).solved
    else:
        searched, avoided = spy_low_level(monkeypatch)
        assert solve_adapted_cbs(inst).solved
        calls = [key for key, _, _ in searched] + [(agent, constraints)
                                                   for agent, constraints, *_ in avoided]
    received = [(agent, c.agent) for agent, constraints in calls for c in constraints]
    assert all(agent == named for agent, named in received)
    assert len({named for _, named in received}) >= 2


@st.composite
def low_level_cases(draw):
    """A replan on a small grid: 1-4 agents, random labeled walks cut to
    distinct ends for the agents in the index (the replanned one included or
    not yet indexed), random constraints on the replanned agent, a key, a
    small expansion cap, and the hop distances to the goal or, at random,
    arbitrary ones."""
    w, h = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    blocked = draw(st.sets(st.integers(0, w * h - 1), max_size=w * h // 3))
    graph = parse_map("\n".join("".join("@" if y * w + x in blocked else "."
                                         for x in range(w)) for y in range(h)))
    n_free = graph.n_vertices
    n = draw(st.integers(1, min(4, n_free)))
    starts = draw(st.permutations(range(n_free)))[:n]
    goals = draw(st.permutations(range(n_free)))[:n]
    probs = st.sampled_from([0.1, 0.25, 0.5, 0.75])
    inst = Instance(graph, tuple(AgentSpec(i, starts[i], goals[i], draw(probs))
                                 for i in range(n)))
    paths = []
    for i in range(n):
        vertices, labels = [starts[i]], [0.0]
        for _ in range(draw(st.integers(0, 7))):
            options = (vertices[-1],) + graph.adjacency[vertices[-1]]
            vertices.append(options[draw(st.integers(0, 4)) % len(options)])
            labels.append(labels[-1] + draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])))
        k = fresh_end(vertices, paths)
        paths.append(Path(tuple(vertices[:k]), tuple(labels[:k])))
    agent = draw(st.integers(0, n - 1))
    if not draw(st.booleans()):
        paths = paths[:agent]   # the root plans `agent` before indexing it
    dist = shortest_path_distances(graph, goals[agent])
    if draw(st.booleans()):
        # along an edge, f never falls under hop distances; under random
        # ones it can, so a Phase-2 successor may have f <= key
        dist = [d if d == math.inf else draw(st.integers(0, 6)) for d in dist]
    constraints = tuple(Constraint(*c) for c in draw(st.lists(
        st.tuples(st.just(agent), st.integers(0, n_free - 1), st.integers(0, 8)),
        max_size=6)))
    f0 = dist[starts[agent]] * move_cost(inst.agents[agent].delay_prob)
    key = draw(st.one_of(st.just(0.0), st.integers(0, 40).map(lambda k: k / 2),
                         st.integers(0, 6).map(lambda k: f0 + k), st.just(1e9)))
    cap = draw(st.one_of(st.integers(1, 40), st.just(ame.LOW_LEVEL_EXPANSIONS)))
    return inst, paths, agent, constraints, key, cap, dist


# corridor 0-1-2: agent 1 starts in Phase 2 at vertex 1 (f > key), and both
# its moves reach f <= key; the move to 0, where agent 0 stays, conflicts
PHASE_2_DROP = (Instance(parse_map("..."), (AgentSpec(0, 0, 2, 0.1), AgentSpec(1, 1, 0, 0.1))),
                [Path((0, 0, 0), (0.0, 1.0, 2.0))], 1, (), 1.5, ame.LOW_LEVEL_EXPANSIONS,
                [0, 2, 0])

# corridor 0-1-2-3 with a pocket 4 under vertex 1: agent 1 departs vertex 1
# at indices 0 and 3, so the Phase-1 successor (1, 2) of (0, x = 1) counts
# the departure at x + 2 and not the one at x - 1
DEPARTURES_AT_EDGES = (
    Instance(parse_map("....\n@.@@"), (AgentSpec(0, 0, 3, 0.1), AgentSpec(1, 1, 4, 0.1))),
    [Path((0,), (0.0,)), Path((1, 4, 4, 1, 4), (0.0, 1.0, 2.0, 3.0, 4.0))], 0, (), 1e9,
    ame.LOW_LEVEL_EXPANSIONS, [3, 2, 1, 0, 3])


def parked_on_successor(walk):
    """A 2x2 grid (0 1 / 2 3), agent 0 from 0 to 3, and agent 1's `walk`,
    which ends on vertex 1 at index s: the Phase-1 successor (1, 1) of
    (0, x = 0) counts 1, 2 or 3 for s = x + 2, x + 1 or s <= x, and the
    route through vertex 2 counts 0."""
    inst = Instance(parse_map("..\n.."), (AgentSpec(0, 0, 3, 0.1), AgentSpec(1, walk[0], 1, 0.1)))
    other = Path(walk, tuple(map(float, range(len(walk)))))
    return (inst, [Path((0,), (0.0,)), other], 0, (), 1e9, ame.LOW_LEVEL_EXPANSIONS,
            [2, 1, 1, 0])


@given(low_level_cases())
@example(PHASE_2_DROP)
@example(DEPARTURES_AT_EDGES)
@example(parked_on_successor((3, 3, 1)))
@example(parked_on_successor((3, 1)))
@example(parked_on_successor((1,)))
@settings(max_examples=400)
def test_low_level_matches_two_heap_oracle(case):
    # the one-queue search against the former two-heap one: the same path,
    # labels and expansions, or the same failure cause.  The search takes
    # the heuristic scaled by the move cost, as `solve_ame` builds it; the
    # oracle takes the distances and scales them itself
    inst, paths, agent, constraints, key, cap, dist = case
    t_move = move_cost(inst.agents[agent].delay_prob)

    def outcome(search, h):
        try:
            path, expansions = search(inst, agent, Plan(paths), constraints, key, h, cap)
        except LowLevelFailure as fail:
            return fail.cause
        return path.vertices, path.labels, expansions

    assert outcome(low_level_search, [d * t_move for d in dist]) \
        == outcome(two_heap_search, dist)
