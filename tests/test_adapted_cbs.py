import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from mapf_dp import adapted_cbs, ame
from mapf_dp import (AgentSpec, Graph, Instance, Path, Plan, generate_random_instance,
                     solve_adapted_cbs, validate_plan)
from mapf_dp.adapted_cbs import fewest_conflicts_path, shortest_path_under_constraints
from mapf_dp.ame import Constraint, LowLevelFailure, SolveLimits, conflict_tree_search
from mapf_dp.generate import GenerationError
from mapf_dp.model import INF, parse_map, path_conflicts, shortest_path_distances
from tests.brute_force_oracle import brute_force_optimal_makespan
from tests.conftest import C1, C2, C3, C4
from tests.low_level_oracle import fewest_conflicts_path as former_fewest_conflicts
from tests.low_level_oracle import shortest_path_under_constraints as former_shortest


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


@st.composite
def unconstrained_cases(draw):
    """(instance, agent 0's hop distances to its goal): one agent on a grid
    of up to 5x5 with some cells blocked, which may cut it in two, its
    start and goal drawn apart or equal."""
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    blocked = draw(st.sets(st.integers(0, w * h - 1), max_size=w * h // 3))
    graph = parse_map("\n".join("".join("@" if y * w + x in blocked else "."
                                         for x in range(w)) for y in range(h)))
    start = draw(st.integers(0, graph.n_vertices - 1))
    goal = draw(st.one_of(st.just(start), st.integers(0, graph.n_vertices - 1)))
    return Instance(graph, (AgentSpec(0, start, goal, 0.5),)), \
        shortest_path_distances(graph, goal)


class TestRootLengths:
    """With no constraint the unit shortest search returns at the goal's BFS
    distance after exactly that many expansions, so `solve_adapted_cbs`
    reads its root's lengths L* off the distance table."""

    @given(unconstrained_cases())
    @settings(max_examples=300)
    def test_unconstrained_search_stops_at_distance(self, case):
        inst, dist = case
        d = dist[inst.agents[0].start]
        event("start == goal" if d == 0 else "unreachable" if d == INF else "apart")
        try:
            path, expansions = shortest_path_under_constraints(inst, 0, frozenset(), dist)
        except LowLevelFailure as fail:
            assert (fail.cause, d) == ("exhausted", INF)
        else:
            assert path.last_index == expansions == d

    def test_unreachable_goal_is_exhausted_both_ways(self, monkeypatch):
        # agent 1's goal lies in the other component: the search exhausts,
        # and the solver, which stores "exhausted" for it without a search,
        # ends as the reference that searched
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        inst = Instance(g, (AgentSpec(0, 0, 1, 0.5), AgentSpec(1, 2, 0, 0.5)))
        with pytest.raises(LowLevelFailure) as fail:
            shortest_path_under_constraints(inst, 1, frozenset(), shortest_path_distances(g, 0))
        assert fail.value.cause == "exhausted"
        ref_calls, _ = spy_low_level(monkeypatch)
        assert reference_cbs(inst, SolveLimits()).status == "no-solution"
        assert [(key, found) for key, found, _ in ref_calls] \
            == [((0, frozenset()), (0, 1)), ((1, frozenset()), "exhausted")]
        calls, avoided = spy_low_level(monkeypatch)
        assert solve_adapted_cbs(inst).status == "no-solution"
        assert calls == []
        assert [agent for agent, *_ in avoided] == [0]


def random_path(instance, agent, rng):
    """A path of `agent`: up to three random steps or waits from its start,
    then a shortest path to its goal."""
    adjacency = instance.graph.adjacency
    spec = instance.agents[agent]
    dist = shortest_path_distances(instance.graph, spec.goal)
    vertices = [spec.start]
    for _ in range(rng.randrange(4)):
        vertices.append(rng.choice((vertices[-1],) + adjacency[vertices[-1]]))
    while vertices[-1] != spec.goal:
        vertices.append(min(adjacency[vertices[-1]], key=dist.__getitem__))
    return Path(tuple(vertices))


def obeys(path, constraints):
    """Whether the goal-padded `path` avoids every constrained (vertex, index)."""
    vs = path.vertices
    return all(vs[min(c.index, len(vs) - 1)] != c.vertex for c in constraints)


def brute_force_fewest_conflicts(instance, agent, plan, constraints, bound):
    """The least number of `path_conflicts` with `plan` of any path of
    `agent` that ends by index `bound` and obeys `constraints`, found by
    enumerating every walk from its start; None if there is none."""
    spec = instance.agents[agent]
    adjacency = instance.graph.adjacency
    dist = shortest_path_distances(instance.graph, spec.goal)
    counts = []
    walks = [(spec.start,)]
    while walks:
        walk = walks.pop()
        if walk[-1] == spec.goal and obeys(Path(walk), constraints):
            counts.append(len(path_conflicts(plan, agent, Path(walk))))
        x = len(walk)   # the index of the next step
        walks += [walk + (v,) for v in (walk[-1],) + adjacency[walk[-1]]
                  if x + dist[v] <= bound]
    return min(counts, default=None)


class TestAvoidance:
    @given(width=st.integers(2, 3), height=st.integers(2, 3), agents=st.integers(1, 3),
           blocked=st.sampled_from([0.0, 0.2]), seed=st.integers(0, 2**16))
    @settings(max_examples=200)
    def test_fewest_conflicts_matches_brute_force(self, width, height, agents, blocked,
                                                  seed):
        # other paths of random detours, random constraints on the replanned
        # agent and a bound of its shortest length plus 0-2 steps of slack
        try:
            inst = generate_random_instance(width, height, blocked, agents, (0, 0.5), seed)
        except GenerationError:
            assume(False)
        rng = random.Random(seed)
        plan = Plan(tuple(random_path(inst, i, rng) for i in range(agents)))
        j = rng.randrange(agents)
        n = inst.graph.n_vertices
        constraints = frozenset(Constraint(j, rng.randrange(n), rng.randint(1, 5))
                                for _ in range(rng.randrange(5)))
        dist = shortest_path_distances(inst.graph, inst.agents[j].goal)
        try:
            shortest, _ = shortest_path_under_constraints(inst, j, constraints, dist)
        except LowLevelFailure:
            assume(False)
        bound = shortest.last_index + rng.randrange(3)
        assume(bound <= 9)
        path, _ = fewest_conflicts_path(inst, j, plan, constraints, bound, dist)
        vs = path.vertices
        assert (vs[0], vs[-1]) == (inst.agents[j].start, inst.agents[j].goal)
        assert all(v == u or v in inst.graph.adjacency[u] for u, v in zip(vs, vs[1:]))
        assert path.last_index <= bound
        assert obeys(path, constraints)
        assert len(path_conflicts(plan, j, path)) \
            == brute_force_fewest_conflicts(inst, j, plan, constraints, bound)

    def test_parked_tail_counts(self):
        # agent 1 passes agent 0's goal 1 at index 2: if agent 0 arrives
        # before index 4, its parked tail meets agent 1 there, though no state
        # before its arrival conflicts
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 1, 0.5), AgentSpec(1, 2, 2, 0.5)))
        plan = Plan((Path((0, 1)), Path((2, 2, 1, 2))))
        dist = shortest_path_distances(g, 1)
        path, _ = fewest_conflicts_path(inst, 0, plan, (), 4, dist)
        assert path.vertices == (0, 0, 0, 0, 1)
        assert path_conflicts(plan, 0, path) == []
        path, _ = fewest_conflicts_path(inst, 0, plan, (), 1, dist)
        assert path.vertices == (0, 1)
        assert len(path_conflicts(plan, 0, path)) == 3

    def test_bound_above_cap_is_searched(self):
        # agent 1 stays on agent 0's goal 1 until index 14: only the bound 20
        # bounds the search, not the index cap of a shortest search (4|V| =
        # 12 here), so agent 0 waits past that cap and meets no one
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = Instance(g, (AgentSpec(0, 0, 1, 0.5), AgentSpec(1, 1, 2, 0.5)))
        plan = Plan((Path((0, 1)), Path((1,) * 15 + (2,))))
        path, expansions = fewest_conflicts_path(inst, 0, plan, (), 20,
                                                 shortest_path_distances(g, 1))
        assert path.vertices == (0,) * 16 + (1,)
        assert path_conflicts(plan, 0, path) == []
        assert expansions == 17


def fresh_end(walk, paths) -> int:
    """The length of the longest prefix of `walk` that ends on no vertex that
    one of `paths` ends on, as the paths of a plan end on distinct vertices;
    a draw whose walk has none is rejected."""
    ends = {p.vertices[-1] for p in paths}
    fresh = [k for k, v in enumerate(walk, 1) if v not in ends]
    assume(fresh)
    return fresh[-1]


@st.composite
def unit_low_level_cases(draw):
    """A replan of adapted CBS on a small grid: 1-4 agents, random walks for
    the agents in the plan (the replanned one included or not yet planned),
    cut to distinct ends, random constraints on the replanned agent, some on
    its goal, which may
    be its start, an expansion cap of 1-40 or the default, and a key: -1
    (the shortest search) or a bound from the shortest length L* (0 if there
    is none) up to past the shortest search's index cap, 4|V| plus the
    largest constrained index."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    blocked = draw(st.sets(st.integers(0, w * h - 1), max_size=w * h // 3))
    graph = parse_map("\n".join("".join("@" if y * w + x in blocked else "."
                                         for x in range(w)) for y in range(h)))
    n_free = graph.n_vertices
    n = draw(st.integers(1, min(4, n_free)))
    starts = draw(st.permutations(range(n_free)))[:n]
    goals = list(draw(st.permutations(range(n_free)))[:n])
    agent = draw(st.integers(0, n - 1))
    if draw(st.booleans()):   # the replanned agent starts on its goal
        if starts[agent] in goals:   # swapped with the agent whose goal it was
            k = goals.index(starts[agent])
            goals[k] = goals[agent]
        goals[agent] = starts[agent]
    inst = Instance(graph, tuple(AgentSpec(i, starts[i], goals[i], 0.5) for i in range(n)))
    paths = []
    for i in range(n):   # walks long enough to pass the index cap, mostly waiting
        vertices = [starts[i]]
        for _ in range(draw(st.integers(0, 40))):
            options = (vertices[-1],) + graph.adjacency[vertices[-1]]
            vertices.append(options[max(draw(st.integers(-5, 3)), 0) % len(options)])
        paths.append(Path(tuple(vertices[:fresh_end(vertices, paths)])))
    if not draw(st.booleans()):
        paths = paths[:agent]
    vertex = st.one_of(st.integers(0, n_free - 1), st.just(goals[agent]))
    constraints = frozenset(Constraint(agent, v, x) for v, x in draw(st.lists(
        st.tuples(vertex, st.integers(0, 10)), max_size=6)))
    dist = shortest_path_distances(graph, goals[agent])
    cap = draw(st.one_of(st.integers(1, 40), st.just(ame.LOW_LEVEL_EXPANSIONS)))
    index_cap = 4 * n_free + max((c.index for c in constraints), default=0)
    try:
        shortest = former_shortest(inst, agent, constraints, dist)[0].last_index
    except LowLevelFailure:
        shortest = 0
    key = draw(st.one_of(st.just(-1), st.integers(shortest, shortest + 3),
                         st.integers(shortest, index_cap + 6),
                         st.integers(index_cap + 1, index_cap + 6)))
    return inst, Plan(tuple(paths)), agent, constraints, key, cap, dist


@given(unit_low_level_cases())
@settings(max_examples=500)
def test_low_level_matches_former_searches(case):
    # the entry points into the one search against the former searches:
    # the same vertices and expansions, or the same failure cause
    inst, plan, agent, constraints, key, cap, dist = case

    def outcome(shortest, avoiding):
        try:
            if key < 0:
                path, expansions = shortest(inst, agent, constraints, dist, cap)
            else:
                path, expansions = avoiding(inst, agent, plan, constraints, key, dist, cap)
        except LowLevelFailure as fail:
            return fail.cause
        return path.vertices, path.labels, expansions

    assert outcome(shortest_path_under_constraints, fewest_conflicts_path) \
        == outcome(former_shortest, former_fewest_conflicts)


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
        # one such instance in 150 (19 of 2,771 drawn alike) takes more than
        # 5,000 nodes with or without bypass, and 3x3, 3 agents, 20% blocked,
        # seed 92 (max index 10) takes 14,473 with it and 21,648 without.
        # Nor does bypass always take fewer nodes: 2x3, 3 agents, 20%
        # blocked, seed 3 takes 4,389 with it and 3,761 without
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

    @given(width=st.integers(2, 4), height=st.integers(2, 4), agents=st.integers(1, 3),
           blocked=st.sampled_from([0.0, 0.2]), seed=st.integers(0, 2**16))
    @settings(max_examples=100)
    def test_key_is_largest_shortest_length_of_node_sets(self, width, height, agents,
                                                         blocked, seed):
        # every popped node's key, and its plan's max index, equals the
        # largest shortest length L*_i of an agent under its own set in the
        # node: the lower bound that bypass and the optimal max index rest on.
        # The pops of `conflict_tree_search` give each node's sets, a bypass
        # node's included
        try:
            inst = generate_random_instance(width, height, blocked, agents, (0, 0.5), seed)
        except GenerationError:
            assume(False)
        dists = [shortest_path_distances(inst.graph, a.goal) for a in inst.agents]
        popped = []
        pop = ame.heappop

        def recording_pop(heap):
            entry = pop(heap)
            if len(entry) == 6:   # a node; the low level pops through the same name
                popped.append(entry)
            return entry

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ame, "heappop", recording_pop)
            solve_adapted_cbs(inst, SolveLimits(time_s=1e9, high_level_expansions=300))
        shortest = {}
        for _, _, sets, plan, key, _ in popped:
            for i, own in enumerate(sets):
                if (i, own) not in shortest:
                    path, _ = shortest_path_under_constraints(inst, i, own, dists[i])
                    shortest[i, own] = path.last_index
            assert key == plan.max_index == max(shortest[i, own] for i, own in enumerate(sets))


# (width = height, agents, generator seed): solved and node-capped searches
TABLE_CASES = [(6, 3, 1), (6, 5, 3), (6, 8, 0), (7, 5, 1), (7, 8, 1),
               (8, 5, 0), (8, 8, 0), (8, 8, 5)]
TABLE_LIMITS = SolveLimits(time_s=1e9, high_level_expansions=200)


def reference_cbs(instance, limits):
    """Adapted CBS that runs both low-level searches on every call."""
    def replan(instance, agent, plan, constraints, key, dist_to_goal, cap):
        path, expansions = adapted_cbs.shortest_path_under_constraints(
            instance, agent, constraints, dist_to_goal, cap)
        path, avoiding = adapted_cbs.fewest_conflicts_path(
            instance, agent, plan, constraints, max(path.last_index, int(key)),
            dist_to_goal, cap)
        return path, expansions + avoiding

    def evaluate(plan):
        return plan, float(plan.max_index)

    dists = [shortest_path_distances(instance.graph, a.goal) for a in instance.agents]
    return conflict_tree_search(instance, limits, dists, replan, evaluate, bypass=True)


def spy_low_level(monkeypatch):
    """Record ((agent, constraints), cause or vertices, expansions) of each
    shortest search, and (agent, constraints, bound, vertices, expansions)
    of each avoidance search, with the constraints as the solver passed
    them."""
    calls, avoided = [], []

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

    def avoid_spy(instance, agent, plan, constraints, bound, dist_to_goal, cap):
        path, expansions = fewest_conflicts_path(instance, agent, plan, constraints, bound,
                                                 dist_to_goal, cap)
        avoided.append((agent, constraints, bound, path.vertices, expansions))
        return path, expansions

    monkeypatch.setattr(adapted_cbs, "shortest_path_under_constraints", spy)
    monkeypatch.setattr(adapted_cbs, "fewest_conflicts_path", avoid_spy)
    return calls, avoided


def assert_same_search(result, reference):
    assert (result.status, result.high_level_expanded, result.key) \
        == (reference.status, reference.high_level_expanded, reference.key)
    if reference.plan is None:
        assert result.plan is None
    else:
        assert [p.vertices for p in result.plan.paths] \
            == [p.vertices for p in reference.plan.paths]


class TestPlanTable:
    """`solve_adapted_cbs` runs the shortest search of each (agent, own
    constraint set) once per solve, but none under the empty set, whose
    length it reads off the distance table, and the avoidance search on
    every call; the reference runs both on every call."""

    @pytest.mark.parametrize("size, agents, seed", TABLE_CASES)
    def test_matches_planning_every_time(self, monkeypatch, size, agents, seed):
        inst = generate_random_instance(size, size, 0.1, agents, (0, 0.5), seed)
        ref_calls, ref_avoided = spy_low_level(monkeypatch)
        reference = reference_cbs(inst, TABLE_LIMITS)
        calls, avoided = spy_low_level(monkeypatch)
        result = solve_adapted_cbs(inst, TABLE_LIMITS)
        assert_same_search(result, reference)
        keys = [key for key, _, _ in calls]
        roots = {(i, frozenset()) for i in range(inst.n_agents)}
        assert len(keys) == len(set(keys))
        assert {key for key, _, _ in ref_calls} - set(keys) == roots   # the skipped ones
        assert set(calls) <= set(ref_calls)
        # the root plans agent i with its stored length L* as the bound (key
        # 0): the distance table's, and the one the reference searched
        searched = {key[0]: len(found) - 1 for key, found, _ in ref_calls if key in roots}
        table = [shortest_path_distances(inst.graph, a.goal)[a.start] for a in inst.agents]
        assert [bound for _, _, bound, _, _ in avoided[:inst.n_agents]] \
            == [searched[i] for i in range(inst.n_agents)] == table
        assert avoided == ref_avoided
        assert result.low_level_expanded \
            == sum(e for _, _, e in calls) + sum(e for *_, e in avoided)
        assert result.low_level_expanded <= reference.low_level_expanded

    @pytest.mark.parametrize("size, agents, seed, budget",
                             [(6, 8, 0, 15), (6, 8, 5, 20), (8, 12, 3, 10)])
    def test_repeated_failure_raises_stored_cause(self, monkeypatch, size, agents,
                                                  seed, budget):
        # the shortest search alone runs on `budget` expansions, so that
        # repeated (agent, set)s fail on it
        inst = generate_random_instance(size, size, 0.1, agents, (0, 0.5), seed)
        failed = []   # (own key, cause) of each shortest search that failed

        def capped(instance, agent, constraints, dist_to_goal, cap):
            try:
                return shortest_path_under_constraints(
                    instance, agent, constraints, dist_to_goal, min(cap, budget))
            except LowLevelFailure as fail:
                failed.append(((agent, constraints), fail.cause))
                raise

        monkeypatch.setattr(adapted_cbs, "shortest_path_under_constraints", capped)
        reference = reference_cbs(inst, TABLE_LIMITS)
        failed.clear()
        raised = []   # (own key, failure) of each replan that raised

        def recording_search(instance, limits, heuristics, replan, evaluate, *, bypass):
            def recorded(instance, agent, occupancy, constraints, *rest):
                try:
                    return replan(instance, agent, occupancy, constraints, *rest)
                except LowLevelFailure as fail:
                    raised.append(((agent, constraints), fail))
                    raise
            return conflict_tree_search(instance, limits, heuristics, recorded, evaluate,
                                        bypass=bypass)

        monkeypatch.setattr(adapted_cbs, "conflict_tree_search", recording_search)
        result = solve_adapted_cbs(inst, TABLE_LIMITS)
        assert_same_search(result, reference)
        stored = dict(failed)
        assert len(stored) == len(failed)   # each failing set is searched once
        assert "budget" in stored.values()
        assert all(fail.cause == stored[key] for key, fail in raised)
        assert len({key for key, _ in raised}) < len(raised)   # repeats occur
        assert len({id(fail) for _, fail in raised}) == len(raised)   # each fresh
