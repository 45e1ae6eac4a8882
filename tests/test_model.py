import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapf_dp import (AgentSpec, ConflictKind, Graph, Instance, Path, Plan,
                     find_earliest_conflict, parse_map, serialize_map,
                     shortest_path_distances, validate_plan)
from mapf_dp.model import GenerationError, MapError, enumerate_conflicts, grid_graph
from tests.conftest import C1, C2, C3, C4


def vertex_padded(path, x):
    """Vertex of `path` at index x, padded with its goal past the end."""
    return path.vertices[x] if x < len(path.vertices) else path.vertices[-1]


class TestParseMap:
    def test_single_cell(self):
        g = parse_map(".")
        assert g.adjacency == ((),)

    def test_2x2_lattice(self):
        g = parse_map("..\n..")
        assert g.adjacency == ((1, 2), (0, 3), (0, 3), (1, 2))

    def test_header_detected(self):
        assert parse_map("2 2\n..\n..").n_vertices == 4

    def test_blocked_variants(self):
        g = parse_map(".@\nT.")
        assert g.adjacency == ((), ())

    def test_row_major_ids(self):
        g = parse_map(".@\n..")
        assert g.grid.cell_of(0) == (0, 0)
        assert g.grid.cell_of(1) == (0, 1)
        assert g.grid.cell_of(2) == (1, 1)

    def test_errors(self):
        with pytest.raises(MapError):
            parse_map("..\n.")
        with pytest.raises(MapError,
                           match="^map header says 7 9, but the rows are 3 wide and 2 high$"):
            parse_map("7 9\n...\n...")
        with pytest.raises(MapError, match="^map header says 2 3, but the rows"):
            parse_map("2 3\n..\n..")
        with pytest.raises(MapError):
            parse_map(".x")
        with pytest.raises(MapError):
            parse_map("@@")

    def test_30x30_ten_percent_blocked(self):
        import numpy as np
        rng = np.random.default_rng(0)
        blocked = set(rng.choice(900, size=90, replace=False).tolist())
        rows = "\n".join(
            "".join("@" if y * 30 + x in blocked else "." for x in range(30))
            for y in range(30))
        assert parse_map(rows).n_vertices == 810

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 36 - 1))
    @settings(max_examples=50)
    def test_serialize_roundtrip(self, w, h, mask):
        free = [(mask >> k) & 1 == 1 for k in range(w * h)]
        if not any(free):
            free[0] = True
        text = "\n".join("".join("." if free[y * w + x] else "@"
                                 for x in range(w)) for y in range(h))
        g = parse_map(text)
        again = parse_map(serialize_map(g))
        assert again.grid.free == g.grid.free
        assert again.adjacency == g.adjacency

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 36 - 1))
    @settings(max_examples=100)
    def test_grid_graph_joins_free_cell_neighbours(self, w, h, mask):
        free = [(mask >> k) & 1 == 1 for k in range(w * h)]
        if not any(free):
            with pytest.raises(MapError, match="^map has no free cells$"):
                grid_graph(w, h, free)
            return
        g = grid_graph(w, h, free)
        cells = [(x, y) for y in range(h) for x in range(w) if free[y * w + x]]
        assert [g.grid.cell_of(v) for v in range(g.n_vertices)] == cells
        assert g.adjacency == tuple(
            tuple(v for v, (cx, cy) in enumerate(cells) if abs(cx - x) + abs(cy - y) == 1)
            for x, y in cells)


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(((0,),))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Graph(((1,), ()))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(((5,), ()))


class TestInstanceInvariants:
    def test_duplicate_starts_rejected(self, pocket_graph):
        with pytest.raises(ValueError):
            Instance(pocket_graph, (AgentSpec(0, C1, C2, 0.5),
                                    AgentSpec(1, C1, C3, 0.5)))

    def test_ids_must_match_positions(self):
        # written and read back, these agents would come back ordered by id,
        # under another checksum
        specs = (AgentSpec(1, 0, 2, .2), AgentSpec(0, 2, 0, .3))
        with pytest.raises(ValueError, match="^agent at position 0 has id 1; "):
            Instance(grid_graph(3, 1, [True] * 3), specs)
        with pytest.raises(ValueError, match="^agent at position 1 has id 2; "):
            Instance(grid_graph(3, 1, [True] * 3), (AgentSpec(0, 0, 2, .2), AgentSpec(2, 2, 0, .3)))

    def test_no_agents_rejected(self):
        # an empty instance reached both solvers, and Plan.max_index crashed
        # on it; it now fails the generators' agent-count rule
        with pytest.raises(GenerationError, match="^need at least one agent, got 0$"):
            Instance(Graph.from_edges(2, [(0, 1)]), ())

    def test_delay_prob_domain(self):
        with pytest.raises(ValueError):
            AgentSpec(0, 0, 1, 0.0)
        with pytest.raises(ValueError):
            AgentSpec(0, 0, 1, 1.0)


class TestValidatePlan:
    def test_worked_example_valid(self, pocket_instance, pocket_valid_plan):
        assert validate_plan(pocket_instance, pocket_valid_plan).is_valid

    def test_worked_example_follow_violation(self, pocket_instance,
                                             pocket_invalid_plan):
        report = validate_plan(pocket_instance, pocket_invalid_plan)
        assert not report.is_valid
        assert all(c.kind is ConflictKind.FOLLOW for c in report.conflicts)
        c = report.conflicts[0]
        # agent 1 is scheduled at c2 (index 1) while agent 0 starts there
        assert (c.agent_i, c.agent_j, c.vertex, c.index) == (1, 0, C2, 0)

    def test_single_agent_always_valid(self, pocket_instance):
        inst = Instance(pocket_instance.graph, (AgentSpec(0, C1, C4, 0.5),))
        plan = Plan((Path((C1, C2, C3, C4)),))
        assert validate_plan(inst, plan).is_valid

    def test_malformed_path_reported_distinctly(self, pocket_instance):
        plan = Plan((Path((C2, C4, C3)), Path((C1, C2, C3, C4))))
        report = validate_plan(pocket_instance, plan)
        assert report.path_errors
        assert not report.conflicts

    def test_padding_blocks_entering_parked_goal(self, pocket_graph):
        # agent 1 wants to cross agent 0's goal after agent 0 parks there
        inst = Instance(pocket_graph, (AgentSpec(0, C2, C3, 0.5),
                                       AgentSpec(1, C1, C4, 0.5)))
        plan = Plan((Path((C2, C3)),
                     Path((C1, C2, C2, C3, C4))))
        report = validate_plan(inst, plan)
        assert not report.is_valid

    def test_conflicts_reported_pair_major(self):
        # pair (0, 2) before pair (1, 2), whatever order they are found in
        g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        inst = Instance(g, (AgentSpec(0, 2, 4, 0.5), AgentSpec(1, 4, 1, 0.5),
                            AgentSpec(2, 1, 0, 0.5)))
        plan = Plan((Path((2, 3, 4)), Path((4, 3, 2, 1)), Path((1, 2, 1, 0))))
        V, F = ConflictKind.VERTEX, ConflictKind.FOLLOW
        assert [(c.kind, c.agent_i, c.agent_j, c.vertex, c.index)
                for c in validate_plan(inst, plan).conflicts] == [
            (V, 0, 1, 3, 1), (F, 2, 0, 2, 0), (F, 1, 2, 2, 1), (F, 1, 2, 1, 2)]

    def test_label_monotonicity_checked(self, pocket_instance):
        plan = Plan((Path((C2, C3), labels=(0.0, 0.5)),
                     Path((C1, C1, C1, C2, C3, C4))))
        report = validate_plan(pocket_instance, plan)
        assert any("labels" in e for e in report.path_errors)

    def test_nan_label_is_a_path_error(self, pocket_instance):
        plan = Plan((Path((C2, C3), labels=(0.0, math.nan)),
                     Path((C1, C1, C1, C2, C3, C4), labels=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))))
        assert validate_plan(pocket_instance, plan).path_errors == [
            "agent 0: labels increase by < 1 at index 1"]


class TestWithLabels:
    @pytest.mark.parametrize("rows", [[(0.0, 1.0)], [(0.0, 1.0), (0.0,), (0.0,)]],
                             ids=["fewer", "more"])
    def test_needs_one_row_per_path(self, rows):
        plan = Plan((Path((0, 1)), Path((2,))))
        with pytest.raises(ValueError, match=f"^{len(rows)} label rows for 2 paths$"):
            plan.with_labels(rows)

    def test_shares_the_built_index(self):
        plan = Plan((Path((0, 1)), Path((2, 2))))
        assert "visits" not in vars(plan.with_labels([(0.0, 1.0), (0.0, 1.0)]))
        visits, parked = plan.visits, plan.parked
        labeled = plan.with_labels([(0.0, 2.0), (0.0, 1.0)])
        assert labeled.paths[0].labels == (0.0, 2.0)
        assert labeled.visits is visits and labeled.parked is parked


class TestEarliestConflict:
    def test_valid_plan_none(self, pocket_valid_plan):
        assert find_earliest_conflict(pocket_valid_plan) is None

    def test_follow_conflict_found(self, pocket_invalid_plan):
        c = find_earliest_conflict(pocket_invalid_plan)
        assert c.kind is ConflictKind.FOLLOW
        assert (c.vertex, c.index) == (C2, 0)

    def test_prefers_smaller_larger_index(self):
        # vertex conflict at index 3, follow conflict with larger index 2
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        plan = Plan((Path((0, 1, 2, 3)), Path((2, 2, 2, 3, 4))))
        scan = enumerate_conflicts(plan)
        assert {(c.kind, c.larger_index) for c in scan} >= {
            (ConflictKind.VERTEX, 3), (ConflictKind.FOLLOW, 2)}
        c = find_earliest_conflict(plan)
        assert c.kind is ConflictKind.VERTEX
        assert c.larger_index == 2

    def test_none_iff_validate_empty(self, pocket_instance, pocket_valid_plan,
                                     pocket_invalid_plan):
        for plan in (pocket_valid_plan, pocket_invalid_plan):
            empty = validate_plan(pocket_instance, plan).is_valid
            assert (find_earliest_conflict(plan) is None) == empty


class TestShortestPaths:
    def test_goal_distance_zero(self, pocket_graph):
        assert shortest_path_distances(pocket_graph, C4)[C4] == 0

    def test_corridor_distance(self, pocket_graph):
        assert shortest_path_distances(pocket_graph, C4)[C1] == 3

    def test_disconnected_is_inf(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert shortest_path_distances(g, 0)[2] == math.inf


def deque_distances(graph, goal):
    """Hop distances to goal by a plain first-in, first-out BFS."""
    dist = [math.inf] * graph.n_vertices
    dist[goal] = 0
    queue = deque([goal])
    while queue:
        u = queue.popleft()
        for v in graph.adjacency[u]:
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@st.composite
def graphs_with_goal(draw):
    """A graph on 1-12 vertices from random edges, so some vertices may be
    unreachable from others, and a goal vertex."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=20)) if u != v]
    return Graph.from_edges(n, edges), draw(st.integers(0, n - 1))


@given(graphs_with_goal())
@settings(max_examples=300)
def test_distances_match_deque_bfs(case):
    graph, goal = case
    dist = shortest_path_distances(graph, goal)
    assert dist == deque_distances(graph, goal)
    assert [type(d) for d in dist] == [type(d) for d in deque_distances(graph, goal)]


def test_padding_closure_double_loop(pocket_valid_plan):
    # direct quadratic check of both validity rules over the padded horizon
    plan = pocket_valid_plan
    x_max = plan.max_index
    for i, pi in enumerate(plan.paths):
        for j, pj in enumerate(plan.paths):
            if i == j:
                continue
            for x in range(x_max + 1):
                assert vertex_padded(pi, x) != vertex_padded(pj, x)
                assert vertex_padded(pi, x + 1) != vertex_padded(pj, x)
