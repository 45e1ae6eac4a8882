from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapf_dp import (Graph, Path, Plan, WarehouseParams,
                     approximate_average_makespan, build_partial_order,
                     compute_labels, message_schedule, transitive_reduction,
                     generate_random_instance, generate_warehouse_instance,
                     solve_ame, validate_plan)
from mapf_dp.dependency import DependencyError, DependencyGraph, Node, move_cost
from tests.conftest import C1, C2, C3, C4


def chain_edges(dg):
    """The intra-agent edges (i, x) -> (i, x+1) of a dependency graph."""
    return {(u, v) for u, v in dg.edges if u[0] == v[0]}


def pairwise_partial_order_edges(plan):
    """The all-pairs loop `build_partial_order` ran before it indexed visits."""
    edges = set()
    for i, p in enumerate(plan.paths):
        for x in range(p.last_index):
            edges.add(((i, x), (i, x + 1)))
    # last visit index of each vertex per agent, scanned in index order
    for i, pi in enumerate(plan.paths):
        for j, pj in enumerate(plan.paths):
            if i == j:
                continue
            for x in range(pi.last_index):   # target (i, x + 1)
                v = pi.vertices[x + 1]
                for xp in range(min(x, pj.last_index)):   # x' < x, x' < X_j
                    if pj.vertices[xp] == v:
                        edges.add(((j, xp + 1), (i, x + 1)))
    return edges


def partial_order_labels(plan, delay_probs, dg=None):
    """The partial-order recurrence `compute_labels` ran before its sweep."""
    if dg is None:
        dg = build_partial_order(plan)
    preds: dict[Node, list[Node]] = defaultdict(list)
    for u, v in dg.edges:
        preds[v].append(u)
    labels: list[list[float]] = [[0.0] * (p.last_index + 1) for p in plan.paths]
    max_x = plan.max_index
    for x in range(1, max_x + 1):
        for i, path in enumerate(plan.paths):
            if x > path.last_index:
                continue
            t_hat = 1.0 if path.vertices[x] == path.vertices[x - 1] \
                else move_cost(delay_probs[i])
            best = max(labels[j][y] for j, y in preds[(i, x)])
            labels[i][x] = best + t_hat
    return plan.with_labels(labels)


def rising_between_agents(red):
    """Reduced edges from each sender agent to each recipient rise strictly
    in both sender and target state."""
    between = {}
    for (j, y), (i, x) in red.inter_agent_edges:
        between.setdefault((j, i), []).append((x, y))
    for pairs in between.values():
        pairs.sort()
        for (xa, ya), (xb, yb) in zip(pairs, pairs[1:]):
            if not (xa < xb and ya < yb):
                return False
    return True


def brute_force_reduction(nodes, edges):
    """Drop an edge iff its target stays reachable via a different path."""
    edges = set(edges)
    kept = set()
    for u, v in edges:
        adj = {}
        for a, b in edges:
            if (a, b) != (u, v):
                adj.setdefault(a, []).append(b)
        stack, seen = [u], set()
        reachable = False
        while stack:
            n = stack.pop()
            if n == v:
                reachable = True
                break
            if n in seen:
                continue
            seen.add(n)
            stack.extend(adj.get(n, ()))
        if not reachable:
            kept.add((u, v))
    return kept


class TestPartialOrder:
    def test_worked_example_edges(self, pocket_long_plan):
        dg = build_partial_order(pocket_long_plan)
        assert ((0, 1), (1, 4)) in dg.edges   # implied, removed by reduction
        assert ((0, 3), (1, 4)) in dg.edges
        assert dg.inter_agent_edges == {
            ((0, 1), (1, 4)), ((0, 3), (1, 4)),
            ((1, 5), (0, 6)), ((1, 6), (0, 7))}

    def test_single_agent_chain_only(self):
        plan = Plan((Path((C1, C2, C3)),))
        dg = build_partial_order(plan)
        assert dg.edges == {((0, 0), (0, 1)), ((0, 1), (0, 2))}

    def test_disjoint_paths_no_inter_edges(self):
        plan = Plan((Path((C1, C2)), Path((C3, C4))))
        assert build_partial_order(plan).inter_agent_edges == set()

    def test_edges_increase_index(self, pocket_long_plan):
        dg = build_partial_order(pocket_long_plan)
        assert all(y < x for (_, y), (_, x) in dg.edges)

    @given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8),
                    min_size=1, max_size=5))
    @settings(max_examples=300)
    def test_matches_pairwise_loop(self, paths):
        plan = Plan(tuple(Path(tuple(p)) for p in paths))
        dg = build_partial_order(plan)
        assert dg.edges == pairwise_partial_order_edges(plan)
        # the proof in message_schedule needs no valid plan, only a reduction
        assert rising_between_agents(transitive_reduction(dg))


class TestTransitiveReduction:
    def test_worked_example_removes_implied_edge(self, pocket_long_plan):
        red = transitive_reduction(build_partial_order(pocket_long_plan))
        assert ((0, 1), (1, 4)) not in red.edges
        assert red.inter_agent_edges == {
            ((0, 3), (1, 4)), ((1, 5), (0, 6)), ((1, 6), (0, 7))}

    def test_chain_unchanged(self):
        plan = Plan((Path((C1, C2, C3, C4)),))
        dg = build_partial_order(plan)
        assert transitive_reduction(dg).edges == dg.edges

    def test_keeps_all_chain_edges(self, pocket_long_plan):
        dg = build_partial_order(pocket_long_plan)
        assert chain_edges(transitive_reduction(dg)) == chain_edges(dg)

    def test_idempotent(self, pocket_long_plan):
        once = transitive_reduction(build_partial_order(pocket_long_plan))
        twice = transitive_reduction(once)
        assert once.edges == twice.edges

    def test_cycle_rejected(self):
        dg = DependencyGraph([(0, 0), (0, 1)],
                             {((0, 0), (0, 1)), ((0, 1), (0, 0))})
        with pytest.raises(DependencyError):
            transitive_reduction(dg)

    def test_same_index_edge_rejected(self):
        dg = DependencyGraph([(0, 1), (1, 1)], {((0, 1), (1, 1))})
        with pytest.raises(DependencyError):
            transitive_reduction(dg)

    def test_edge_to_unknown_node_rejected(self):
        dg = DependencyGraph([(0, 0), (0, 1)], {((0, 0), (0, 1)), ((0, 1), (1, 2))})
        with pytest.raises(DependencyError):
            transitive_reduction(dg)

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=120)
    def test_matches_brute_force_on_random_dags(self, n, data):
        # nodes (0, k) ordered by k; forward edges only, so always a DAG
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                    max_size=30))
        nodes = [(0, k) for k in range(n)]
        edges = {((0, i), (0, j)) for i, j in chosen}
        dg = DependencyGraph(nodes, edges)
        red = transitive_reduction(dg)
        assert red.edges == brute_force_reduction(nodes, edges)

    def test_minimality_on_plan_orders(self, pocket_long_plan):
        # removing any surviving inter-agent edge changes reachability
        dg = build_partial_order(pocket_long_plan)
        red = transitive_reduction(dg)
        assert len(red.inter_agent_edges) <= len(dg.inter_agent_edges)
        for edge in red.inter_agent_edges:
            remaining = red.edges - {edge}
            # target must no longer be reachable from source
            adj = {}
            for a, b in remaining:
                adj.setdefault(a, []).append(b)
            stack, seen = [edge[0]], set()
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                stack.extend(adj.get(u, ()))
            assert edge[1] not in seen


class TestMessageSchedule:
    def test_worked_example_single_wait(self, pocket_long_plan):
        red = transitive_reduction(build_partial_order(pocket_long_plan))
        waits = message_schedule(red, pocket_long_plan)
        # agent 1 waits at local state 3 for exactly one message from agent 0
        assert waits[1][3] == ((0, 3),)
        assert waits[1][2] == ()
        # once received, nothing further is required of agent 0
        assert all(waits[1][x] == () for x in range(4, 7))

    def test_total_matches_reduced_pairs(self, pocket_long_plan):
        red = transitive_reduction(build_partial_order(pocket_long_plan))
        waits = message_schedule(red, pocket_long_plan)
        pairs = {(u, v[0]) for u, v in red.inter_agent_edges}
        assert sum(len(w) for per_x in waits.values() for w in per_x) == len(pairs) == 3

    def test_no_inter_edges_zero_messages(self):
        plan = Plan((Path((C1, C2)), Path((C3, C4))))
        red = transitive_reduction(build_partial_order(plan))
        waits = message_schedule(red, plan)
        assert waits == {0: [(), ()], 1: [(), ()]}

    def test_requires_reduced_graph(self, pocket_long_plan):
        with pytest.raises(DependencyError):
            message_schedule(build_partial_order(pocket_long_plan),
                             pocket_long_plan)

    @pytest.mark.parametrize("inter", [
        {((0, 1), (1, 3)), ((0, 2), (1, 2))},    # crossing pair
        {((0, 1), (1, 2)), ((0, 1), (1, 3))},    # one sender state, two targets
        {((0, 1), (1, 3)), ((0, 2), (1, 3))},    # two sender states, one target
        {((0, 1), (1, 0))},                      # target state 0 is never entered
    ])
    def test_rejects_edges_a_reduction_cannot_keep(self, inter):
        plan = Plan((Path((C1, C2, C3, C4)), Path((C4, C3, C2, C1))))
        dg = build_partial_order(plan)
        dg = DependencyGraph(dg.nodes, chain_edges(dg) | inter, reduced=True)
        with pytest.raises(DependencyError):
            message_schedule(dg, plan)


class TestComputeLabels:
    def test_three_moves_half_delay(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        plan = Plan((Path((0, 1, 2, 3)),))
        lp = compute_labels(plan, [0.5])
        assert lp.paths[0].labels == (0.0, 2.0, 4.0, 6.0)

    def test_wait_contributes_one(self):
        g = Graph.from_edges(2, [(0, 1)])
        plan = Plan((Path((0, 0, 1)),))
        lp = compute_labels(plan, [0.75])
        assert lp.paths[0].labels == (0.0, 1.0, 5.0)

    def test_worked_example_recurrence(self, pocket_long_plan):
        lp = compute_labels(pocket_long_plan, [0.5, 0.5])
        l0, l1 = lp.paths[0].labels, lp.paths[1].labels
        # agent 1's move into the corridor junction waits on agent 0's third exit
        assert l1[4] == pytest.approx(max(l1[3], l0[3]) + 2.0)
        assert approximate_average_makespan(lp) == pytest.approx(14.0)

    def test_makespan_is_max_final_label(self, pocket_long_plan):
        lp = compute_labels(pocket_long_plan, [0.5, 0.5])
        assert approximate_average_makespan(lp) == pytest.approx(
            max(p.labels[-1] for p in lp.paths))

    def test_fixpoint(self, pocket_long_plan):
        lp = compute_labels(pocket_long_plan, [0.3, 0.6])
        again = compute_labels(lp, [0.3, 0.6])
        for a, b in zip(lp.paths, again.paths):
            assert a.labels == pytest.approx(b.labels, abs=1e-9)

    def test_labels_equal_over_reduced_order(self, pocket_long_plan):
        # chain monotonicity makes the reduction label-preserving
        dg = build_partial_order(pocket_long_plan)
        red = transitive_reduction(dg)
        swept = compute_labels(pocket_long_plan, [0.4, 0.2])
        assert partial_order_labels(pocket_long_plan, [0.4, 0.2], dg) == swept
        assert partial_order_labels(pocket_long_plan, [0.4, 0.2], red) == swept

    @given(st.lists(st.tuples(st.lists(st.integers(0, 5), min_size=1, max_size=8),
                              st.floats(0.0, 0.9)),
                    min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_matches_partial_order_recurrence(self, agents):
        # arbitrary plans, most of them invalid: the sweep needs no validity
        plan = Plan(tuple(Path(tuple(p)) for p, _ in agents))
        probs = [q for _, q in agents]
        assert compute_labels(plan, probs) == partial_order_labels(plan, probs)

    @pytest.mark.parametrize("make", [
        lambda: generate_random_instance(20, 20, 0.1, 20, (0, 0.5), 1),
        lambda: generate_warehouse_instance(WarehouseParams(), 8, (0, 0.5), 1000),
    ], ids=["random-20a-s1", "warehouse-8a-s1000"])
    def test_matches_partial_order_recurrence_on_solved_plans(self, make):
        inst = make()
        probs = [a.delay_prob for a in inst.agents]
        for recompute in (False, True):
            result = solve_ame(inst, recompute_labels=recompute)
            assert result.solved
            assert compute_labels(result.plan, probs) \
                == partial_order_labels(result.plan, probs)

    @pytest.mark.parametrize("probs", [[0.5], [0.5, 0.5, 0.5]], ids=["fewer", "more"])
    def test_needs_one_probability_per_path(self, pocket_long_plan, probs):
        with pytest.raises(ValueError, match=f"^{len(probs)} delay probabilities for 2 paths$"):
            compute_labels(pocket_long_plan, probs)

    def test_empty_path_gets_no_labels(self):
        # `check_path_wellformed` reports an empty path; it gets no labels
        lp = compute_labels(Plan((Path(()), Path((1, 2)))), [0.5, 0.5])
        assert [p.labels for p in lp.paths] == [(), (0.0, 2.0)]

    def test_monotone_by_at_least_one(self, pocket_long_plan):
        lp = compute_labels(pocket_long_plan, [0.5, 0.5])
        for p in lp.paths:
            for x in range(1, len(p.labels)):
                assert p.labels[x] >= p.labels[x - 1] + 1 - 1e-9


class TestOnSolvedPlans:
    @pytest.mark.parametrize("seed", range(5))
    def test_reduction_oracle_and_labels_on_solver_output(self, seed):
        inst = generate_random_instance(8, 8, 0.1, 4, (0, 0.5), seed)
        result = solve_ame(inst)
        assert result.solved
        assert validate_plan(inst, result.plan).is_valid
        dg = build_partial_order(result.plan)
        red = transitive_reduction(dg)
        assert red.edges == brute_force_reduction(list(dg.nodes), dg.edges)
        # the property the simulator's index test rests on
        assert rising_between_agents(red)
        message_schedule(red, result.plan)
        # recomputing labels from scratch never lowers the makespan estimate
        probs = [a.delay_prob for a in inst.agents]
        fresh = compute_labels(result.plan, probs)
        assert fresh == partial_order_labels(result.plan, probs)
        assert approximate_average_makespan(fresh) \
            >= approximate_average_makespan(result.plan) - 1e-9
