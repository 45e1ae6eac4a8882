"""The occupancy index against the pairwise scans it replaced, and the
per-node index of the conflict-tree driver against fresh builds and the
low level's former per-call view of the other agents.  The conflicts a
conflict-tree child carries from its parent are checked against a fresh
enumeration after every swap.

`pairwise_conflicts` and `pairwise_increment` are the former
`enumerate_conflicts` and `_OtherAgents.conflict_increment`, kept verbatim
as reference oracles for the index-based versions.  `count`,
`conflict_increment`, `others_increment` and `wait_bound` read an index the
way its former methods did and the way the low level does.
"""

import copy
import gc
import math
import weakref
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapf_dp import model
from mapf_dp.ame import carry_conflicts, departure_count, departure_row, labeled_departure_row
from mapf_dp.model import (Conflict, ConflictKind, Path, Plan,
                           enumerate_conflicts, find_earliest_conflict, path_conflicts)
from tests.low_level_oracle import departure_row as former_row
from tests.occupancy_oracle import _OtherAgents

V, F = ConflictKind.VERTEX, ConflictKind.FOLLOW


def vertex_padded(path, x):
    """Vertex of `path` at index x, padded with its goal past the end."""
    return path.vertices[x] if x < len(path.vertices) else path.vertices[-1]


def count(occ, vertex, x):
    """Paths of `occ` at (vertex, x), the parked ones included."""
    n = sum(y == x for y, _ in occ.visits.get(vertex, ()))
    for since, _ in occ.parked.get(vertex, ()):
        n += since <= x
    return n


def conflict_increment(occ, vertex, x):
    """Violations of one more agent at (vertex, x) with the indexed paths,
    one per agent there at x, x-1 (followed) and x+1 (following)."""
    return count(occ, vertex, x - 1) + count(occ, vertex, x) + count(occ, vertex, x + 1)


def others_increment(occ, agent, vertex, x):
    """The low level's conflict increment at (vertex, x) against every path
    in `occ` but `agent`'s."""
    return departure_count(departure_row(occ, vertex, agent), x)


def wait_bound(occ, agent, vertex, x):
    """The low level's wait bound at (vertex, x): the largest label of a
    departure from vertex at an index below x - 1 by any agent but `agent`."""
    (xs, _), best = labeled_departure_row(occ, vertex, agent)
    return best[bisect_right(xs, x - 2)]


def pairwise_conflicts(plan: Plan) -> list[Conflict]:
    """All vertex/follow violations between goal-padded paths."""
    conflicts = []
    m = plan.n_agents
    x_max = plan.max_index
    for i in range(m):
        pi = plan.paths[i]
        for j in range(i + 1, m):
            pj = plan.paths[j]
            for x in range(x_max + 1):
                if vertex_padded(pi, x) == vertex_padded(pj, x):
                    conflicts.append(Conflict(ConflictKind.VERTEX, i, j,
                                              vertex_padded(pi, x), x))
            for x in range(x_max):
                if vertex_padded(pi, x + 1) == vertex_padded(pj, x):
                    conflicts.append(Conflict(ConflictKind.FOLLOW, i, j,
                                              vertex_padded(pj, x), x))
                if vertex_padded(pj, x + 1) == vertex_padded(pi, x):
                    conflicts.append(Conflict(ConflictKind.FOLLOW, j, i,
                                              vertex_padded(pi, x), x))
    return conflicts


def pairwise_increment(paths, vertex: int, x: int) -> int:
    inc = 0
    for p in paths:
        if vertex_padded(p, x) == vertex:
            inc += 1
        if x >= 1 and vertex_padded(p, x - 1) == vertex:
            inc += 1
        if vertex_padded(p, x + 1) == vertex:
            inc += 1
    return inc


def labeled(vertices) -> Path:
    return Path(vertices, tuple(float(x) for x in range(len(vertices))))


paths_st = st.lists(st.integers(0, 5), min_size=1, max_size=8).map(tuple)
plans_st = st.lists(paths_st, min_size=1, max_size=6).map(
    lambda ps: Plan(tuple(Path(p) for p in ps)))
SHARED_GOAL = Plan((Path((0, 1, 2)), Path((3, 2)), Path((2,)), Path((4, 4, 1, 2, 5))))


@st.composite
def distinct_goal_plans(draw):
    """Plans like `plans_st`'s whose paths end on distinct goals, as every
    plan of an `Instance` does: the precondition of `enumerate_conflicts`."""
    goals = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
    body = st.lists(st.integers(0, 5), max_size=7).map(tuple)
    return Plan(tuple(Path(draw(body) + (g,)) for g in goals))


@given(distinct_goal_plans())
@settings(max_examples=300)
def test_enumerate_conflicts_matches_pairwise_loop(plan):
    # in the order `validate_plan` reports them
    assert sorted(enumerate_conflicts(plan), key=Conflict.pair_key) == pairwise_conflicts(plan)


@given(distinct_goal_plans())
@settings(max_examples=300)
def test_earliest_conflict_matches_pairwise_loop(plan):
    scan = pairwise_conflicts(plan)
    expected = min(scan, key=Conflict.sort_key) if scan else None
    assert find_earliest_conflict(plan) == expected


@given(plans_st)
@example(SHARED_GOAL)
@settings(max_examples=200)
def test_low_level_increment_matches_pairwise_sum(plan):
    occ = Plan([labeled(p.vertices) for p in plan.paths])
    for vertex in range(6):
        for x in range(plan.max_index + 3):
            assert others_increment(occ, plan.n_agents, vertex, x) == \
                conflict_increment(occ, vertex, x) == \
                pairwise_increment(plan.paths, vertex, x)


def test_conflict_order_is_pinned():
    # the order of `validate_plan`: pair-major, then vertex before follow,
    # then index, then direction; agent 2 waits on agent 0's goal 2
    plan = Plan((Path((0, 1, 2)), Path((1, 3, 1, 1)), Path((3, 2, 2, 2, 4))))
    assert [(c.kind, c.agent_i, c.agent_j, c.vertex, c.index)
            for c in sorted(enumerate_conflicts(plan), key=Conflict.pair_key)] == [
        (F, 0, 1, 1, 0),
        (F, 1, 0, 1, 1),
        (V, 0, 2, 2, 2),
        (V, 0, 2, 2, 3),
        (F, 0, 2, 2, 1),
        (F, 0, 2, 2, 2),
        (F, 2, 0, 2, 2),
        (F, 0, 2, 2, 3),
        (F, 1, 2, 3, 0),
    ]


@st.composite
def goal_distinct_swaps(draw):
    """1-6 paths over vertices 0-7 with distinct goals, and a sequence of
    swaps (agent, new path to that agent's goal), as the conflict tree makes."""
    goals = draw(st.lists(st.integers(0, 7), min_size=1, max_size=6, unique=True))
    body = st.lists(st.integers(0, 7), max_size=7).map(tuple)
    paths = [Path(draw(body) + (g,)) for g in goals]
    swaps = draw(st.lists(st.tuples(st.integers(0, len(goals) - 1), body), max_size=8))
    return paths, [(j, Path(b + (goals[j],))) for j, b in swaps]


def by_sort_key(conflicts):
    return sorted(conflicts, key=Conflict.sort_key)


# agent 1's new path enters its goal 2 at index 1, right after agent 0 left
# it: a follow conflict that only the new path's parked entry meets
PARKED_RANGE = ([Path((2, 1)), Path((3, 3, 2))], [(1, Path((3, 2)))])


@given(goal_distinct_swaps())
@example(PARKED_RANGE)
@settings(max_examples=500)
def test_carried_conflicts_match_enumeration(case):
    # the conflict tree's root enumerates over its index; each child carries
    paths, swaps = case
    occ = Plan(paths)
    conflicts = enumerate_conflicts(occ)
    assert by_sort_key(conflicts) == by_sort_key(pairwise_conflicts(Plan(paths)))
    for j, path in swaps:
        conflicts = carry_conflicts(occ, conflicts, j, path)
        occ = occ.swap(j, path)
        assert by_sort_key(conflicts) == by_sort_key(enumerate_conflicts(Plan(occ.paths)))


def test_parked_goal_occupies_every_later_index():
    occ = Plan((Path((0, 1, 2)), Path((3, 2, 2, 2))))
    assert [count(occ, 2, x) for x in range(-1, 6)] == [0, 0, 1, 2, 2, 2, 2]
    assert count(occ, 1, 1) == 1 and count(occ, 1, 2) == 0
    assert occ.parked == {2: [(2, 0), (3, 1)]}
    # visits below each path's last index, by index, then agent
    assert occ.visits == {0: [(0, 0)], 1: [(1, 0)], 2: [(1, 1), (2, 1)], 3: [(0, 1)]}


def pinned(occ, a, path):
    found = [(c.kind, c.agent_i, c.agent_j, c.vertex, c.index)
             for c in by_sort_key(path_conflicts(occ, a, path))]
    paths = occ.paths[:a] + (path,) + occ.paths[a + 1:]
    assert by_sort_key(path_conflicts(occ, a, path)) == \
        by_sort_key(c for c in pairwise_conflicts(Plan(paths)) if a in (c.agent_i, c.agent_j))
    return found


def test_window_edges_are_pinned():
    # the window x - 1 ... x + 1 of a state, and the parked-goal scan from
    # X_a - 1, at their edges; agent 0 is the path queried
    # a state at x = 0: agent 1 follows agent 0 onto vertex 1
    occ = Plan((Path((1, 2)), Path((3, 1, 4))))
    assert pinned(occ, 0, occ.paths[0]) == [(F, 1, 0, 1, 0)]
    # X_0 = 0: agent 0 sits on vertex 5 from index 0 on, agent 1 is there
    # at indices 0 and 2
    occ = Plan((Path((5,)), Path((5, 6, 5, 7))))
    assert pinned(occ, 0, occ.paths[0]) == [
        (V, 0, 1, 5, 0), (F, 0, 1, 5, 0), (V, 0, 1, 5, 2), (F, 1, 0, 5, 1), (F, 0, 1, 5, 2)]
    # repeated waits: agent 1 holds vertex 2 at indices 0-4; agent 0 at
    # (2, 1) meets only indices 0, 1 and 2
    occ = Plan((Path((4, 2, 5)), Path((2, 2, 2, 2, 2, 3))))
    assert pinned(occ, 0, occ.paths[0]) == [(V, 0, 1, 2, 1), (F, 0, 1, 2, 0), (F, 1, 0, 2, 1)]
    # agent 1 leaves agent 0's goal 2 at X_0 - 1 = 1; its visit at 0 is
    # too early to meet agent 0 parked there from index 2 on
    occ = Plan((Path((0, 1, 2)), Path((2, 2, 4))))
    assert pinned(occ, 0, occ.paths[0]) == [(F, 0, 1, 2, 1)]


# labeled paths over vertices 0-5; small integer labels make ties between agents
labeled_path_st = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6)),
                           min_size=1, max_size=8).map(
    lambda vl: Path(tuple(v for v, _ in vl), tuple(float(lab) for _, lab in vl)))
# (agent slot, new path)
swaps_st = st.lists(st.tuples(st.integers(0, 5), labeled_path_st), max_size=8)


def assert_same_index(occ, paths):
    """`occ` indexes `paths` exactly as a fresh build and, for every
    excluded agent, as the former per-call view of the other agents."""
    fresh = Plan(paths)
    assert (occ.paths, occ.visits, occ.parked) == (fresh.paths, fresh.visits, fresh.parked)
    x_end = max(p.last_index for p in paths) + 3
    for agent in range(len(paths) + 1):
        oracle = _OtherAgents([p for k, p in enumerate(paths) if k != agent], agent)
        for v in range(7):
            for x in range(x_end):
                expected = oracle.conflict_increment(v, x)
                assert others_increment(occ, agent, v, x) == expected
                assert others_increment(fresh, agent, v, x) == expected
                expected = oracle.wait_bound(v, x)
                assert wait_bound(occ, agent, v, x) == expected
                assert wait_bound(fresh, agent, v, x) == expected


@given(st.lists(labeled_path_st, min_size=1, max_size=6), swaps_st)
@settings(max_examples=300, deadline=None)
def test_swapped_index_matches_fresh_build_and_former_view(paths, swaps):
    # the root appends paths one by one; each child swaps one path
    occ = Plan(())
    for j, p in enumerate(paths):
        occ = occ.swap(j, p)
    paths = list(paths)
    for slot, p in swaps:
        j = slot % len(paths)
        occ = occ.swap(j, p)
        paths[j] = p
    assert_same_index(occ, paths)


# three paths parked on vertex 2, one since index 0, and one parked on 1
SHARED_PARKING = ([Path((0, 2), (0.0, 1.0)), Path((1, 0, 2), (0.0, 1.0, 2.0)),
                   Path((2,), (0.0,)), Path((2, 1), (0.0, 2.0))], [])


@given(st.lists(labeled_path_st, min_size=1, max_size=6), swaps_st)
@example(*SHARED_PARKING)
@settings(max_examples=300, deadline=None)
def test_departure_count_matches_former_counts(paths, swaps):
    # the count read from a row equals the former row's counts[x], or its
    # last entry past the end, at every vertex and index, for every agent
    # left out; the departures and their best labels are the former ones,
    # and AME's labeled row holds the same conflict row as CBS's
    occ = Plan(())
    for j, p in enumerate(paths):
        occ = occ.swap(j, p)
    for slot, p in swaps:
        occ = occ.swap(slot % len(paths), p)
    for agent in range(len(paths) + 1):
        for v in range(7):
            counts, xs, best = former_row(occ, v, agent)
            row = departure_row(occ, v, agent)
            assert labeled_departure_row(occ, v, agent) == (row, best)
            assert row[0] == xs
            for x in range(max(p.last_index for p in occ.paths) + 4):
                assert departure_count(row, x) == counts[min(x, len(counts) - 1)]


def derive(source, plan, patched=True):
    """`plan` with its index derived from `source`'s, which is built, by a
    patch whatever the share of agents that differ (`patched`: it must be
    one): equal to a fresh build, and `source`'s index unchanged, though the
    two share the lists of the vertices where they agree."""
    assert "visits" in vars(source)
    before = copy.deepcopy((source.visits, source.parked))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "DERIVE_SPAN", 1)
        plan.derive_index(source)
    assert "visits" in vars(plan) or not patched
    fresh = Plan(plan.paths)
    assert (plan.visits, plan.parked) == (fresh.visits, fresh.parked)
    assert (source.visits, source.parked) == before
    return plan


def relabel(plan):
    labeled = plan.with_labels([[2.0 * x for x in range(len(p.vertices))] for p in plan.paths])
    assert labeled.visits is plan.visits and labeled.parked is plan.parked
    return labeled


@given(st.lists(labeled_path_st, min_size=1, max_size=6), swaps_st)
@example(*SHARED_PARKING)
@settings(max_examples=300, deadline=None)
def test_derived_index_matches_fresh_build(paths, swaps):
    # as in the conflict tree: the root appends paths one by one, each
    # prefix read before the next; each popped node swaps a path, is read,
    # and may be relabeled; two unrelated plans that share some vertex
    # tuples, and differ in length, derive from each other
    occ = Plan(())
    occ.visits
    for j, p in enumerate(paths):
        occ = derive(occ, occ.swap(j, p))
    for slot, p in swaps:
        occ = relabel(derive(occ, occ.swap(slot % len(paths), p)))
    for other in (Plan(paths), Plan(paths[:-1]), Plan((*paths, *(p for _, p in swaps)))):
        occ = derive(derive(occ, other, patched=False), occ.swap(0, occ.paths[-1]),
                     patched=False)


def test_small_plans_are_built_afresh():
    # below DERIVE_SPAN paths a patch costs more than a fresh build
    source = Plan(tuple(Path((v, 10 + v)) for v in range(model.DERIVE_SPAN)))
    source.visits
    plan = source.swap(0, Path((0, 0, 10)))
    plan.derive_index(source)
    assert "visits" in vars(plan)
    small = Plan(source.paths[1:]).swap(0, Path((1, 1, 11)))
    small.derive_index(source)
    assert "visits" not in vars(small)
    assert small.visits == Plan(small.paths).visits


def test_derived_index_keeps_no_source_alive(monkeypatch):
    # after the derivation, dropping the source frees it: the derived plan
    # holds no reference back to it
    monkeypatch.setattr(model, "DERIVE_SPAN", 1)
    source = Plan((Path((0, 1, 2)), Path((3, 4))))
    source.visits
    plan = source.swap(1, Path((3, 3, 4)))
    plan.derive_index(source)
    assert "visits" in vars(plan)
    gone = weakref.ref(source)
    del source
    gc.collect()
    assert gone() is None
    assert plan.visits == {0: [(0, 0)], 1: [(1, 0)], 3: [(0, 1), (1, 1)]}
    assert plan.parked == {2: [(2, 0)], 4: [(2, 1)]}


def test_wait_bound_leaves_the_replanned_agents_labels_out():
    # agent 0 departs vertex 0 with the larger labels; leaving it out must
    # fall back to agent 1's best, not to -inf or to agent 0's own
    occ = Plan((Path((0, 0, 0, 1), (0.0, 5.0, 9.0, 10.0)),
                     Path((2, 0, 1), (0.0, 1.0, 3.0))))
    inf = math.inf
    assert [wait_bound(occ, 2, 0, x) for x in (1, 2, 3, 4)] == [-inf, 5.0, 9.0, 10.0]
    assert [wait_bound(occ, 1, 0, x) for x in (1, 2, 3, 4)] == [-inf, 5.0, 9.0, 10.0]
    assert [wait_bound(occ, 0, 0, x) for x in (1, 2, 3, 4)] == [-inf, -inf, 3.0, 3.0]


def test_row_leaves_the_replanned_agent_out():
    # agent 0 parks on vertex 2 from index 1 on; agent 1 leaves 2 at index 0
    # and parks on 3 from index 1 on
    occ = Plan((Path((0, 2), (0.0, 1.0)), Path((2, 3), (0.0, 1.0))))
    assert [[others_increment(occ, 0, v, x) for x in range(4)] for v in range(4)] == [
        [0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0], [1, 2, 3, 3]]
    assert [others_increment(occ, 2, 2, x) for x in range(4)] == [2, 3, 3, 3]
