"""Experiment harness: desk-scale analogues of the solver/policy studies.

exp1  random + warehouse instances, one row per instance and solver
exp2  fixed random layout, sweep of expected per-move durations
exp3  agent-count sweep with success rates
exp4  policy comparison (mcp / fsp / dummy) on random instances

CSV output is byte-deterministic for a fixed config and seed when every
solve ends before `time_limit`; wall-clock runtimes therefore go to the
text report only.  A solve that reaches the limit is written as
`timeout`, and whether one does depends on the machine's speed, so its row
may differ between machines or runs.  `node_limit` caps the conflict-tree
nodes one solve expands; a solve that reaches it is written as `timeout`
too, but at the same node on every machine, so the CSV stays deterministic
when the node limit binds before the time limit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional

from .adapted_cbs import solve_adapted_cbs
from .ame import SolveLimits, SolveResult, solve_ame
from .dependency import approximate_average_makespan, compute_labels
from .generate import WarehouseParams, check_delay_bound, check_grid, delay_sweep, \
    generate_random_instance, generate_warehouse_instance
from .model import Instance, Plan, check_agents, check_seed, validate_plan
from .simulate import check_runs, monte_carlo

CSV_COLUMNS = [
    "experiment", "instance", "solver", "policy", "agents", "t_hat_max",
    "status", "approx_makespan", "mean_makespan", "ci95", "messages",
    "mean_collisions", "timeouts",
]

EXPERIMENTS = ("exp1", "exp2", "exp3", "exp4")
SOLVERS = ("ame", "adapted-cbs")
EXP2_T_HAT_MAXES = (2, 4, 8)
EXP3_AGENT_COUNTS = (5, 10, 15, 20)
P_HI = 0.5   # upper delay probability when `p_hi` is not given
UNREAD = {   # (experiment, field): what the experiment does instead of reading it
    ("exp2", "n_instances"): "sweeps t_hat_max on one layout; --instances",
    ("exp2", "p_hi"): "draws each delay probability from its t_hat_max; --p-hi",
    ("exp3", "agents"): f"sweeps {', '.join(map(str, EXP3_AGENT_COUNTS))} agents; --agents",
}


@dataclass
class BenchConfig:
    """Every option of one `run_bench` call.  `n_instances`, `agents` and
    `p_hi` default to `None`, which resolves to 10 instances (5 per agent
    count for exp3), 10 agents and `P_HI`.  A value that `UNREAD` names for
    the experiment, or a policy set but mcp outside exp4, raises
    `ValueError`, and so do an instance count below one, and a count,
    seed, grid, `p_hi` or limit that the generators, `monte_carlo` or
    `SolveLimits` reject, with their messages.  `solvers` and
    `policies` are stored as tuples, and `limits` is the `SolveLimits` of
    every solve."""

    experiment: str = "exp1"
    width: int = 20
    height: int = 20
    blocked_fraction: float = 0.10
    n_instances: Optional[int] = None
    agents: Optional[int] = None
    p_hi: Optional[float] = None
    solvers: tuple[str, ...] = ("ame",)
    policies: tuple[str, ...] = ("mcp",)
    n_runs: int = 200
    seed: int = 0
    time_limit: float = SolveLimits.time_s
    node_limit: int = SolveLimits.high_level_expansions

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        self.solvers, self.policies = tuple(self.solvers), tuple(self.policies)
        for (experiment, name), instead in UNREAD.items():
            if experiment == self.experiment and getattr(self, name) is not None:
                raise ValueError(f"{experiment} {instead} does not apply")
        defaults = {"n_instances": 5 if self.experiment == "exp3" else 10,
                    "agents": 10, "p_hi": P_HI}
        for name, value in defaults.items():
            if getattr(self, name) is None:
                setattr(self, name, value)
        for option, values in (("--solver", self.solvers), ("--policy", self.policies)):
            if not values:
                raise ValueError(f"empty {option[2:]} set")
            for k, v in enumerate(values):
                if v in values[:k]:
                    raise ValueError(f"{option} names {v} twice")
        if self.experiment != "exp4" and self.policies != ("mcp",):
            raise ValueError(f"{self.experiment} simulates mcp only; --policy "
                             "applies to exp4")
        bad = [s for s in self.solvers if s not in SOLVERS]
        if bad:
            raise ValueError(f"unknown solvers: {bad}")
        if self.n_instances < 1:
            raise ValueError(f"need at least one instance, got {self.n_instances}")
        check_agents(self.agents)
        check_runs(self.n_runs)
        check_seed(self.seed)
        self.limits = SolveLimits(self.time_limit, self.node_limit)
        check_grid(self.width, self.height, self.blocked_fraction)
        check_delay_bound(self.p_hi)


def solve_with(solver: str, instance: Instance, limits: SolveLimits,
               recompute_labels: bool = False) -> SolveResult:
    if solver == "ame":
        return solve_ame(instance, limits, recompute_labels=recompute_labels)
    if solver == "adapted-cbs":
        if recompute_labels:
            raise ValueError("adapted-cbs ignores delay probabilities; "
                             "--recompute-labels does not apply")
        return solve_adapted_cbs(instance, limits)
    raise ValueError(f"unknown solver {solver!r}")


def labeled(instance: Instance, plan: Plan) -> Plan:
    return compute_labels(plan, [a.delay_prob for a in instance.agents])


def run_bench(config: BenchConfig, log=None) -> tuple[list[dict], list[str]]:
    """Run `config.experiment` and return (rows, warnings): one row per
    solve and policy, or per solve that ends unsolved, and for exp3 one
    success-rate row per agent count.  Every random grid is drawn by
    `random_instance` below, exp2's sweep by `delay_sweep`.  `log(msg)`
    receives progress lines."""
    log = log or (lambda msg: None)
    rows: list[dict] = []
    warnings: list[str] = []

    def random_instance(m, seed):
        return generate_random_instance(config.width, config.height, config.blocked_fraction,
                                        m, (0.0, config.p_hi), seed)

    def base_row(instance_id, solver, agents, t_hat_max=""):
        return {c: "" for c in CSV_COLUMNS} | {
            "experiment": config.experiment, "instance": instance_id,
            "solver": solver, "agents": agents, "t_hat_max": t_hat_max,
        }

    def bench_instance(instance_id, instance, t_hat_max=""):
        for solver in config.solvers:
            result = solve_with(solver, instance, config.limits)
            row = base_row(instance_id, solver, instance.n_agents, t_hat_max)
            row["status"] = result.status
            log(f"{instance_id} {solver}: {result.status} "
                f"({result.wall_time:.3f}s)")
            row["_runtime"] = result.wall_time
            if result.solved:
                plan = labeled(instance, result.plan)
                report = validate_plan(instance, plan)
                if not report.is_valid and any(p != "dummy" for p in config.policies):
                    raise RuntimeError(f"solver emitted an invalid plan "
                                       f"({len(report.conflicts)} conflicts)")
                row["approx_makespan"] = approximate_average_makespan(plan)
                for policy in config.policies:
                    stats = monte_carlo(instance, plan, policy, config.n_runs, config.seed)
                    rows.append(row | stats.as_dict())
            else:
                rows.append(row)

    if config.experiment in ("exp1", "exp4"):
        for k in range(config.n_instances):
            bench_instance(f"random-{k + 1}", random_instance(config.agents, config.seed + k))
        if config.experiment == "exp1":
            for k in range(config.n_instances):
                inst = generate_warehouse_instance(
                    WarehouseParams(), config.agents, (0.0, config.p_hi),
                    config.seed + 1000 + k)
                bench_instance(f"warehouse-{k + 1}", inst)

    elif config.experiment == "exp2":
        base = random_instance(config.agents, config.seed)
        series: dict[tuple[str, str], list] = {}   # (solver, policy): [(t_max, mean)]
        for t_max, inst in delay_sweep(base, EXP2_T_HAT_MAXES, config.seed):
            before = len(rows)
            bench_instance(f"t{t_max}", inst, t_hat_max=t_max)
            for r in rows[before:]:
                if r["status"] == "solved":
                    series.setdefault((r["solver"], r["policy"]), []).append(
                        (t_max, r["mean_makespan"]))
        for (solver, policy), means in series.items():
            for (ta, ma), (tb, mb) in zip(means, means[1:]):
                if not mb > ma:
                    warnings.append(
                        f"{solver} {policy} mean makespan not increasing from "
                        f"t_hat_max {ta} to {tb} ({ma:.2f} -> {mb:.2f})")

    elif config.experiment == "exp3":
        success = []
        for m in EXP3_AGENT_COUNTS:
            solved = 0
            for k in range(config.n_instances):
                before = len(rows)
                bench_instance(f"m{m}-{k + 1}", random_instance(m, config.seed + 100 * m + k))
                if any(r["status"] == "solved" for r in rows[before:]):
                    solved += 1
            success.append((m, solved / config.n_instances))
        for (ma, ra), (mb, rb) in zip(success, success[1:]):
            if rb > ra:
                warnings.append(
                    f"success rate increased from {ma} agents ({ra:.2f}) "
                    f"to {mb} agents ({rb:.2f})")
        for m, rate in success:
            rows.append(base_row(f"success-rate-{m}", "+".join(config.solvers), m)
                        | {"status": f"{rate:.2f}"})

    return rows, warnings


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(c, "")) for c in CSV_COLUMNS])
    return buf.getvalue()


def rows_to_table(rows: list[dict]) -> str:
    cols = ["instance", "solver", "policy", "status", "runtime",
            "approx_makespan", "mean_makespan", "ci95", "messages",
            "mean_collisions"]
    table = [cols]
    for row in rows:
        r = dict(row)
        rt = r.pop("_runtime", "")
        r["runtime"] = f"{rt:.3f}" if rt != "" else ""
        table.append([
            _fmt(r.get(c, "")) if not isinstance(r.get(c, ""), float)
            else f"{r[c]:.2f}" for c in cols])
    widths = [max(len(line[i]) for line in table) for i in range(len(cols))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"
