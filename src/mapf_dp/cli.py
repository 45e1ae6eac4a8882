"""Command-line front end: generate / solve / validate / simulate / bench.

Exit codes: 0 ok or solved, 2 no solution, 3 timeout, 4 validation failure,
1 usage or internal error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path as FilePath

from . import bench as bench_mod
from . import mapio
from .ame import SolveLimits
from .dependency import approximate_average_makespan, dependency_stats
from .generate import WarehouseParams, delay_sweep, generate_random_instance, \
    generate_warehouse_instance
from .model import validate_plan
from .simulate import POLICIES, monte_carlo

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_SOLUTION = 2
EXIT_TIMEOUT = 3
EXIT_INVALID = 4

DEFAULTS = bench_mod.BenchConfig()   # every subcommand's defaults


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mapfdp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write instance files")
    gen.add_argument("--kind", choices=("random", "warehouse"), default="random")
    gen.add_argument("--width", type=int, default=None,
                     help=f"grid width (default {DEFAULTS.width}; random only)")
    gen.add_argument("--height", type=int, default=None,
                     help=f"grid height (default {DEFAULTS.height}; random only)")
    gen.add_argument("--blocked", type=float, default=None,
                     help=f"blocked fraction (default {DEFAULTS.blocked_fraction}; random only)")
    gen.add_argument("--agents", type=int, default=DEFAULTS.agents)
    gen.add_argument("--p-hi", type=float, default=None,
                     help=f"upper delay probability (default {DEFAULTS.p_hi}); "
                          "not with --t-hat-sweep")
    gen.add_argument("--count", type=int, default=None,
                     help="instances to write (default 1); not with --t-hat-sweep")
    gen.add_argument("--t-hat-sweep", default="",
                     help="comma-separated t_hat_max values; emits one instance "
                          "per value sharing one layout")
    gen.add_argument("--seed", type=int, default=DEFAULTS.seed)
    gen.add_argument("--out", default=".")

    sol = sub.add_parser("solve", help="plan an instance")
    sol.add_argument("map")
    sol.add_argument("agents")
    sol.add_argument("--solver", choices=bench_mod.SOLVERS, default="ame")
    sol.add_argument("--time-limit", type=float, default=DEFAULTS.time_limit)
    sol.add_argument("--recompute-labels", action="store_true")
    sol.add_argument("--out", default="plan.json")

    val = sub.add_parser("validate", help="check a plan against its instance")
    val.add_argument("map")
    val.add_argument("agents")
    val.add_argument("plan")
    val.add_argument("--emit-deps", action="store_true")

    sim = sub.add_parser("simulate", help="Monte Carlo plan execution")
    sim.add_argument("map")
    sim.add_argument("agents")
    sim.add_argument("plan")
    sim.add_argument("--policy", choices=POLICIES, default="mcp")
    sim.add_argument("--runs", type=int, default=DEFAULTS.n_runs)
    sim.add_argument("--seed", type=int, default=DEFAULTS.seed)
    sim.add_argument("--latency", type=int, default=0,
                     help="steps a message takes to arrive (default 0)")
    sim.add_argument("--horizon", type=int, default=None,
                     help="step cap of one run (default max(1000, 50 * max index))")

    # each dest is the `BenchConfig` field it sets; the config holds the defaults and rules
    ben = sub.add_parser("bench", help="run an experiment suite")
    ben.add_argument("--experiment", choices=bench_mod.EXPERIMENTS)
    ben.add_argument("--width", type=int)
    ben.add_argument("--height", type=int)
    ben.add_argument("--blocked", dest="blocked_fraction", type=float)
    ben.add_argument("--agents", type=int,
                     help=f"agents per instance (default {DEFAULTS.agents}); exp3 sweeps "
                          + ", ".join(map(str, bench_mod.EXP3_AGENT_COUNTS)))
    ben.add_argument("--instances", dest="n_instances", type=int,
                     help=f"instances (default {DEFAULTS.n_instances}); for exp3, per "
                          "agent count (default "
                          f"{bench_mod.BenchConfig(experiment='exp3').n_instances}); "
                          "not with exp2")
    ben.add_argument("--p-hi", type=float,
                     help=f"upper delay probability (default {DEFAULTS.p_hi}); "
                          "not with exp2")
    ben.add_argument("--solver", dest="solvers", action="append", choices=bench_mod.SOLVERS)
    ben.add_argument("--policy", dest="policies", action="append", choices=POLICIES)
    ben.add_argument("--runs", dest="n_runs", type=int)
    ben.add_argument("--seed", type=int)
    ben.add_argument("--time-limit", type=float)
    ben.add_argument("--node-limit", type=int,
                     help="conflict-tree nodes one solve may expand (default "
                          f"{DEFAULTS.node_limit})")
    ben.add_argument("--out", default="bench_out")
    return parser


def cmd_generate(args) -> int:
    if args.count is not None and args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    for name, field in (("width", "width"), ("height", "height"),
                        ("blocked", "blocked_fraction")):
        if getattr(args, name) is None:
            setattr(args, name, getattr(DEFAULTS, field))
        elif args.kind == "warehouse":
            raise ValueError(f"--kind warehouse draws a fixed shelf layout; --{name} "
                             "does not apply")
    instances = []
    if args.t_hat_sweep:
        if args.count is not None:
            raise ValueError("--t-hat-sweep writes one instance per value; --count "
                             "does not apply")
        if args.kind != "random":
            raise ValueError(f"--t-hat-sweep draws random grids; --kind {args.kind} "
                             "does not apply")
        if args.p_hi is not None:
            raise ValueError("--t-hat-sweep draws each delay probability from its "
                             "t_hat_max; --p-hi does not apply")
        sweep = [int(tok) for tok in args.t_hat_sweep.split(",") if tok]
        if not sweep:
            raise ValueError(f"--t-hat-sweep {args.t_hat_sweep!r} names no value")
        if len(set(sweep)) != len(sweep):
            raise ValueError(f"--t-hat-sweep {args.t_hat_sweep!r} repeats a value")
        base = generate_random_instance(args.width, args.height, args.blocked,
                                        args.agents, (0.0, DEFAULTS.p_hi), args.seed)
        for t_max, inst in delay_sweep(base, sweep, args.seed):
            instances.append((f"t{t_max:02d}", inst))
    else:
        p_range = (0.0, DEFAULTS.p_hi if args.p_hi is None else args.p_hi)
        for k in range(args.count or 1):
            if args.kind == "random":
                inst = generate_random_instance(
                    args.width, args.height, args.blocked, args.agents,
                    p_range, args.seed + k)
            else:
                inst = generate_warehouse_instance(
                    WarehouseParams(), args.agents, p_range, args.seed + k)
            instances.append((f"{args.kind}-{k:03d}", inst))
    out = FilePath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, inst in instances:
        map_path = out / f"{name}.map"
        agents_path = out / f"{name}.agents"
        mapio.write_instance(inst, map_path, agents_path)
        print(f"{name}  checksum={mapio.instance_checksum(inst)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    limits = SolveLimits(time_s=args.time_limit)
    instance = mapio.read_instance(args.map, args.agents)
    result = bench_mod.solve_with(args.solver, instance, limits, args.recompute_labels)
    print(f"solver={args.solver} status={result.status} "
          f"wall_time={result.wall_time:.3f}s "
          f"high_level_expanded={result.high_level_expanded} "
          f"low_level_expanded={result.low_level_expanded}")
    if not result.solved:
        return EXIT_NO_SOLUTION if result.status == "no-solution" else EXIT_TIMEOUT
    plan = bench_mod.labeled(instance, result.plan)
    print(f"approx_average_makespan={approximate_average_makespan(plan):.6f}")
    print(f"max_index={plan.max_index}")
    mapio.write_plan(args.out, plan, mapio.instance_checksum(instance),
                     solver=args.solver)
    print(f"plan written to {args.out}")
    return EXIT_OK


def _load_checked(args):
    instance = mapio.read_instance(args.map, args.agents)
    plan, checksum = mapio.read_plan(args.plan)
    if checksum and checksum != mapio.instance_checksum(instance):
        print("plan checksum does not match the instance", file=sys.stderr)
        return instance, plan, False
    return instance, plan, True


def cmd_validate(args) -> int:
    instance, plan, ok = _load_checked(args)
    if not ok:
        return EXIT_INVALID
    report = validate_plan(instance, plan)
    for err in report.path_errors:
        print(f"path error: {err}")
    for c in report.conflicts:
        print(f"conflict: {c.kind.value} agents=({c.agent_i},{c.agent_j}) "
              f"vertex={c.vertex} index={c.index}")
    if report.is_valid:
        print("plan is valid")
        if args.emit_deps:
            for k, v in dependency_stats(plan).items():
                print(f"{k}={v}")
        return EXIT_OK
    return EXIT_INVALID


def cmd_simulate(args) -> int:
    instance, plan, ok = _load_checked(args)
    if not ok:
        return EXIT_INVALID
    report = validate_plan(instance, plan)
    for err in report.path_errors:
        print(f"path error: {err}", file=sys.stderr)
    if report.path_errors or (args.policy != "dummy" and report.conflicts):
        print(f"plan is invalid for policy {args.policy}", file=sys.stderr)
        return EXIT_INVALID
    stats = monte_carlo(instance, plan, args.policy, args.runs, args.seed,
                        horizon_cap=args.horizon, latency=args.latency)
    for k, v in stats.as_dict().items():
        print(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}")
    return EXIT_OK


def cmd_bench(args) -> int:
    names = {f.name for f in fields(bench_mod.BenchConfig)}
    config = bench_mod.BenchConfig(**{k: v for k, v in vars(args).items()
                                      if k in names and v is not None})
    rows, warnings = bench_mod.run_bench(config, log=print)
    out = FilePath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(bench_mod.rows_to_csv(rows))
    table = bench_mod.rows_to_table(rows)
    (out / "report.txt").write_text(table)
    print(table, end="")
    for w in warnings:
        print(f"WARNING: {w}")
    print(f"results written to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "solve": cmd_solve,
        "validate": cmd_validate,
        "simulate": cmd_simulate,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
