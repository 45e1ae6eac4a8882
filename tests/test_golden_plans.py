"""Golden plans: SHA-256 of `plan_to_json` for three fixed solves.

The digests and search counters were recorded before conflict detection and
low-level conflict counting moved onto the occupancy index.  A change to
conflict handling, tie-breaking or node ordering that alters any plan fails
here.
"""

import hashlib

import pytest

from mapf_dp import (WarehouseParams, generate_random_instance,
                     generate_warehouse_instance, solve_adapted_cbs, solve_ame)
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
    "cbs-warehouse-7a-s1002": (
        solve_adapted_cbs,
        lambda: generate_warehouse_instance(WarehouseParams(), 7, P_RANGE, 1002),
        73, 0, "601c708d1bf052d07f2ff681df08b2ff5eea43ad315536b954afb1664194960f"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_plan_digest_is_pinned(name):
    solve, make, hl_expanded, ll_expanded, digest = GOLDEN[name]
    instance = make()
    result = solve(instance)
    assert result.solved
    assert (result.high_level_expanded, result.low_level_expanded) == \
        (hl_expanded, ll_expanded)
    solver = "ame" if solve is solve_ame else "cbs"
    text = plan_to_json(result.plan, instance_checksum(instance), solver)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
