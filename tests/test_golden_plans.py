"""Golden plans: SHA-256 of `plan_to_json` for six fixed solves, and
Monte Carlo statistics of one of them.

The digests and search counters were recorded before conflict detection and
low-level conflict counting moved onto the occupancy index, with three
exceptions.  The adapted-CBS low-level count was recorded when that solver
began to report it (it had always read 0).  The AME solve with
`recompute_labels=True`, the only solve that relabels every node, was
recorded before labels were computed without the partial order.  The AME
solve on warehouse with 15 agents, the longest low-level search of the
benchmark's warehouse workload, was recorded before the conflict-tree driver
kept one occupancy index per node.  The adapted-CBS low-level count was
re-recorded (6293 -> 3513) when that solver began to plan each (agent, own
constraint set) once per solve: a repeat costs no expansions, and its plan,
digest and high-level count are unchanged.  Its counts were re-recorded
again (73/3513 -> 40/1666) when adapted CBS began to take the bypass rule
of `conflict_tree_search`; its plan and digest are unchanged.  Its plan,
digest and counts were re-recorded (40/1666 -> 7/878) when adapted CBS
began to replan an agent to its path with the fewest conflicts within the
node's max-index slack, ordering nodes by conflict count; the max index
(26) is unchanged.  The adapted-CBS solve of the random 40-agent, seed-4
instance (max index 29, 21 bypass nodes) was recorded before adapted CBS's
two low-level searches were merged into AME's.  Both adapted-CBS low-level
counts were re-recorded (878 -> 736, 11498 -> 10937) when the root's
shortest lengths came from the distance table: each fell by the agents'
summed start-to-goal distances, and plans, digests and high-level counts
are unchanged.  A change to conflict
handling, tie-breaking, node ordering or labels that alters any plan fails
here.  The Monte Carlo statistics were recorded on the
message-passing simulator that the lagged-state loop replaced; a change
that alters any trajectory, message count or collision count fails here.
"""

import hashlib
from functools import cache, partial

import pytest

from mapf_dp import (WarehouseParams, ame, generate_random_instance,
                     generate_warehouse_instance, monte_carlo,
                     solve_adapted_cbs, solve_ame)
from mapf_dp.mapio import instance_checksum, plan_to_json

P_RANGE = (0, 0.5)
GOLDEN = {
    "ame-random-20x20-30a-s0": (
        solve_ame, lambda: generate_random_instance(20, 20, 0.1, 30, P_RANGE, 0),
        16, 5657, "489b807f10785cea5e333d8e60682510eac17296c9c4e575acfbafb753be4806"),
    "ame-warehouse-10a-s1001": (
        solve_ame,
        lambda: generate_warehouse_instance(WarehouseParams(), 10, P_RANGE, 1001),
        6, 2198, "ef54b944c3f957c84e95d78136dabc9677aa59711006cdb5589aa9dad356a965"),
    "ame-warehouse-15a-s1001": (
        solve_ame,
        lambda: generate_warehouse_instance(WarehouseParams(), 15, P_RANGE, 1001),
        26, 25899, "dcfa3408b551e6f37d4312fb1866029c1e23eaf89dc82b91f322fe2114811e89"),
    "ame-relabel-random-20x20-20a-s0": (
        partial(solve_ame, recompute_labels=True),
        lambda: generate_random_instance(20, 20, 0.1, 20, P_RANGE, 0),
        8, 1422, "8cb403173b5d216468e8ec20b29d2a37eee580dd960013837d62ac9b762e9c63"),
    "cbs-warehouse-7a-s1002": (
        solve_adapted_cbs,
        lambda: generate_warehouse_instance(WarehouseParams(), 7, P_RANGE, 1002),
        7, 736, "1ee9cb82af77890aefb2b9da6c31ec8583883dfa4ed1d69137c11269b9ef563e"),
    "cbs-random-20x20-40a-s4": (
        solve_adapted_cbs, lambda: generate_random_instance(20, 20, 0.1, 40, P_RANGE, 4),
        23, 10937, "64c4c3f0f9a71f144cd51cac08f3628a598b39b00e519f18288b4dfed221c566"),
}


@cache
def pinned_solve(name):
    """(instance, result) of the pinned solve `name`, run once per session."""
    solve, make, *_ = GOLDEN[name]
    instance = make()
    return instance, solve(instance)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_plan_digest_is_pinned(name):
    _, _, hl_expanded, ll_expanded, digest = GOLDEN[name]
    instance, result = pinned_solve(name)
    assert result.solved
    assert (result.high_level_expanded, result.low_level_expanded) == \
        (hl_expanded, ll_expanded)
    solver = name.split("-")[0]
    text = plan_to_json(result.plan, instance_checksum(instance), solver)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_only_adapted_cbs_bypasses(name):
    _, result = pinned_solve(name)
    if name.startswith("cbs"):
        assert result.bypasses > 0
    else:
        assert result.bypasses == 0


def test_only_ame_reads_labels(monkeypatch):
    # adapted CBS plans carry no labels: its low level reads its conflict
    # counts straight off the plan's index, and only AME's builds labeled rows
    built = []
    row = ame.labeled_departure_row
    monkeypatch.setattr(ame, "labeled_departure_row",
                        lambda *args: built.append(args) or row(*args))
    for name in ("cbs-warehouse-7a-s1002", "ame-warehouse-10a-s1001"):
        solve, make, *_ = GOLDEN[name]
        built.clear()
        assert solve(make()).solved
        assert bool(built) == name.startswith("ame")


# monte_carlo(..., 40 runs, seed 7, latency).as_dict() on ame-warehouse-10a-s1001
GOLDEN_MC = {
    ("mcp", 0): (44.5, 1.5957102750973566, 106, 0.0),
    ("fsp", 0): (74.1, 1.8216891569681655, 2079, 0.0),
    ("dummy", 0): (44.55, 1.9712127986181243, 0, 10.475),
    ("mcp", 2): (47.35, 1.3527495646332266, 106, 0.0),
}


def test_monte_carlo_is_pinned():
    _, make, *_ = GOLDEN["ame-warehouse-10a-s1001"]
    instance = make()
    plan = solve_ame(instance).plan
    for (policy, latency), (mean, ci95, messages, collisions) in GOLDEN_MC.items():
        stats = monte_carlo(instance, plan, policy, 40, 7, latency=latency)
        assert stats.as_dict() == {
            "n_runs": 40, "mean_makespan": mean, "ci95": ci95,
            "messages": messages, "mean_collisions": collisions,
            "timeouts": 0, "policy": policy}
