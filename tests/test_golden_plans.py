"""Golden plans: SHA-256 of `plan_to_json` for five fixed solves, and
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
of `conflict_tree_search`; its plan and digest are unchanged.  A change
to conflict handling, tie-breaking, node ordering or labels that alters any
plan fails here.  The Monte Carlo statistics were recorded on the
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
        40, 1666, "601c708d1bf052d07f2ff681df08b2ff5eea43ad315536b954afb1664194960f"),
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


def test_only_ame_reads_departure_rows(monkeypatch):
    # adapted CBS plans carry no labels, and its low level reads no index
    built = []
    row = ame.departure_row
    monkeypatch.setattr(ame, "departure_row", lambda *args: built.append(args) or row(*args))
    for name in ("cbs-warehouse-7a-s1002", "ame-warehouse-10a-s1001"):
        solve, make, *_ = GOLDEN[name]
        built.clear()
        assert solve(make()).solved
        assert bool(built) == name.startswith("ame")


# monte_carlo(..., 40 runs, seed 7, latency).as_dict() on ame-warehouse-10a-s1001
GOLDEN_MC = {
    ("mcp", 0): (43.925, 1.4777483825236557, 106, 0.0),
    ("fsp", 0): (74.25, 1.6274174917050914, 2079, 0.0),
    ("dummy", 0): (43.625, 1.6059975332867347, 0, 11.275),
    ("mcp", 2): (47.7, 1.8530513712834253, 106, 0.0),
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
