"""The benchmark's workloads: fixed lists of generated instances.

Every instance comes from the package's own generators with a fixed
generator seed, and every solve is bounded only by a high-level node cap,
so the solved/capped outcome and the plan of each job are the same on any
machine.  The `--seed` of a run drives the Monte Carlo random streams.

Random instances are 20x20 grids with 10% blocked cells; warehouse
instances use the default `WarehouseParams` shelf layout.  Delay
probabilities are drawn from (0, 0.5), the `bench` default.

Caps leave head room over the nodes each solve needed when the benchmark
was added, so a regression that needs many more nodes shows as
a capped (failed) solve.  Instances that no solver here finishes within a
cap were left out (see NOTES.md), because a workload must not fail.
"""

from __future__ import annotations

from dataclasses import dataclass

MCP, FSP, DUMMY = "mcp", "fsp", "dummy"


@dataclass(frozen=True)
class Run:
    """Monte Carlo runs of one policy on a solved plan."""

    policy: str
    runs: int
    latency: int = 0


@dataclass(frozen=True)
class Job:
    """One instance, one solver, and the simulations of its plan."""

    family: str                  # "random" or "warehouse"
    agents: int
    seed: int                    # instance generator seed
    solver: str                  # "ame" or "cbs"
    cap: int                     # SolveLimits.high_level_expansions
    runs: tuple[Run, ...] = ()
    relabel: bool = False        # solve_ame(recompute_labels=True)

    @property
    def label(self) -> str:
        tail = "-relabel" if self.relabel else ""
        return f"{self.family}-{self.agents}a-s{self.seed}{tail}:{self.solver}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]


def _light(mcp: int, fsp: int, dummy: int) -> tuple[Run, ...]:
    return (Run(MCP, mcp), Run(FSP, fsp), Run(DUMMY, dummy))


# Every workload runs both solvers and all three policies, so that every
# end-to-end metric exists on every workload; the proportions differ so that
# each workload loads a different layer.
WORKLOADS = {w.name: w for w in (
    Workload(
        "random-ame",
        "conflict detection (model) dominates solve_ame on dense random grids",
        tuple(Job("random", m, s, "ame", 2000, _light(20, 8, 5))
              for m, s in ((30, 0), (30, 1), (30, 2), (35, 1)))
        + tuple(Job("random", 14, s, "cbs", 200, _light(20, 8, 5))
                for s in (3, 6, 8)),
    ),
    Workload(
        "warehouse-solvers",
        "AME low-level search and many cheap adapted-CBS nodes on the warehouse",
        tuple(Job("warehouse", m, s, "ame", 100, _light(16, 16, 3))
              for m, s in ((8, 1000), (8, 1001), (10, 1000), (10, 1001),
                           (10, 1002), (15, 1001), (15, 1002)))
        + tuple(Job("warehouse", m, s, "cbs", 1000, _light(16, 16, 3))
                for m, s in ((6, 1001), (7, 1001), (7, 1002), (8, 1001))),
    ),
    Workload(
        "execute-mc",
        "the Monte Carlo step loop under mcp, fsp, dummy and mcp with latency 2",
        (Job("random", 20, 0, "ame", 2000,
             _light(150, 150, 150) + (Run(MCP, 50, latency=2),)),
         Job("warehouse", 10, 1001, "ame", 100,
             _light(150, 150, 150) + (Run(MCP, 50, latency=2),)),
         Job("warehouse", 7, 1002, "cbs", 1000, _light(50, 50, 50))),
    ),
    Workload(
        "random-relabel",
        "label recomputation (dependency) inside solve_ame(recompute_labels=True)",
        tuple(Job("random", m, s, "ame", 2000, _light(20, 8, 3), relabel=True)
              for m, s in ((20, 0), (20, 1), (30, 0), (30, 1)))
        + tuple(Job("random", 14, s, "cbs", 200, _light(20, 8, 3))
                for s in (3, 6, 8)),
    ),
)}
