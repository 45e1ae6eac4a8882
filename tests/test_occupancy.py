"""The occupancy index against the pairwise scans it replaced.

`pairwise_conflicts` and `pairwise_increment` are the former
`enumerate_conflicts` and `_OtherAgents.conflict_increment`, kept verbatim
as reference oracles for the index-based versions.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapf_dp.ame import _OtherAgents
from mapf_dp.model import (Conflict, ConflictKind, Occupancy, Path, Plan,
                           enumerate_conflicts, find_earliest_conflict)

V, F = ConflictKind.VERTEX, ConflictKind.FOLLOW


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
                if pi.vertex_padded(x) == pj.vertex_padded(x):
                    conflicts.append(Conflict(ConflictKind.VERTEX, i, j,
                                              pi.vertex_padded(x), x))
            for x in range(x_max):
                if pi.vertex_padded(x + 1) == pj.vertex_padded(x):
                    conflicts.append(Conflict(ConflictKind.FOLLOW, i, j,
                                              pj.vertex_padded(x), x))
                if pj.vertex_padded(x + 1) == pi.vertex_padded(x):
                    conflicts.append(Conflict(ConflictKind.FOLLOW, j, i,
                                              pi.vertex_padded(x), x))
    return conflicts


def pairwise_increment(paths, vertex: int, x: int) -> int:
    inc = 0
    for p in paths:
        if p.vertex_padded(x) == vertex:
            inc += 1
        if x >= 1 and p.vertex_padded(x - 1) == vertex:
            inc += 1
        if p.vertex_padded(x + 1) == vertex:
            inc += 1
    return inc


def labeled(vertices) -> Path:
    return Path(vertices, tuple(float(x) for x in range(len(vertices))))


paths_st = st.lists(st.integers(0, 5), min_size=1, max_size=8).map(tuple)
plans_st = st.lists(paths_st, min_size=1, max_size=6).map(
    lambda ps: Plan(tuple(Path(p) for p in ps)))
SHARED_GOAL = Plan((Path((0, 1, 2)), Path((3, 2)), Path((2,)), Path((4, 4, 1, 2, 5))))


@given(plans_st)
@example(SHARED_GOAL)
@settings(max_examples=300)
def test_enumerate_conflicts_matches_pairwise_loop(plan):
    assert enumerate_conflicts(plan) == pairwise_conflicts(plan)


@given(plans_st)
@example(SHARED_GOAL)
@settings(max_examples=300)
def test_earliest_conflict_matches_pairwise_loop(plan):
    scan = pairwise_conflicts(plan)
    expected = min(scan, key=Conflict.sort_key) if scan else None
    assert find_earliest_conflict(plan) == expected


@given(plans_st)
@example(SHARED_GOAL)
@settings(max_examples=200)
def test_low_level_increment_matches_pairwise_sum(plan):
    others = _OtherAgents([labeled(p.vertices) for p in plan.paths], plan.n_agents)
    for vertex in range(6):
        for x in range(plan.max_index + 3):
            assert others.conflict_increment(vertex, x) == \
                pairwise_increment(plan.paths, vertex, x)


def test_conflict_order_is_pinned():
    # pair-major, then vertex before follow, then index, then direction;
    # agents 0 and 2 both park on vertex 2
    plan = Plan((Path((0, 1, 2)), Path((1, 3, 1, 1)), Path((3, 2))))
    assert [(c.kind, c.agent_i, c.agent_j, c.vertex, c.index)
            for c in enumerate_conflicts(plan)] == [
        (F, 0, 1, 1, 0),
        (F, 1, 0, 1, 1),
        (V, 0, 2, 2, 2),
        (V, 0, 2, 2, 3),
        (F, 0, 2, 2, 1),
        (F, 0, 2, 2, 2),
        (F, 2, 0, 2, 2),
        (F, 1, 2, 3, 0),
    ]


def test_parked_goal_occupies_every_later_index():
    occ = Occupancy((Path((0, 1, 2)), Path((3, 2, 2, 2))))
    assert [occ.count(2, x) for x in range(-1, 6)] == [0, 0, 1, 2, 2, 2, 2]
    assert occ.count(1, 1) == 1 and occ.count(1, 2) == 0
    assert occ.parked == {2: [(2, 0), (3, 1)]}
