"""Load mapf_dp from the checkout and run one pass of a workload.

A pass is a closed loop over the workload's jobs, in order, on one thread:
generate -> solve -> validate_plan -> compute_labels ->
build_partial_order / transitive_reduction / message_schedule ->
plan_to_json -> monte_carlo.  Every call goes through a module attribute at
call time, so the tracer's wrappers see it.  The correctness gate runs
inside the pass: any violation is recorded as an error and fails the run.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from workloads import Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "mapf_dp"
MODULES = ("model", "generate", "dependency", "simulate", "ame", "adapted_cbs", "mapio")
NO_TIME_LIMIT = 1e9     # solves end on node caps only, never on wall-clock time
P_RANGE = (0.0, 0.5)
RANDOM_GRID = (20, 20, 0.10)


class ProgramMissing(RuntimeError):
    """The checkout holds no mapf_dp package to benchmark."""


def load_program() -> SimpleNamespace:
    """Import mapf_dp afresh from the checkout's src directory."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise ProgramMissing(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def source_digest() -> str:
    """Digest of the program's source files; keys the determinism record."""
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def make_instance(program, job: Job):
    gen = program.generate
    if job.family == "random":
        w, h, blocked = RANDOM_GRID
        return gen.generate_random_instance(w, h, blocked, job.agents, P_RANGE, job.seed)
    return gen.generate_warehouse_instance(gen.WarehouseParams(), job.agents,
                                           P_RANGE, job.seed)


@dataclass
class PassResult:
    seconds: float = 0.0    # unscaled
    scale: float = 1.0      # reference speed / machine speed while the pass ran
    solve_s: list[float] = field(default_factory=list)      # per job, scaled
    outcomes: list[str] = field(default_factory=list)       # per job
    solved: Counter = field(default_factory=Counter)        # solver -> solved
    attempted: Counter = field(default_factory=Counter)     # solver -> attempted
    counters: Counter = field(default_factory=Counter)      # exact work counts
    mc_runs: Counter = field(default_factory=Counter)       # policy -> runs
    mc_done: int = 0
    mc_s: dict = field(default_factory=lambda: defaultdict(float))   # policy -> scaled s
    exec_steps: Counter = field(default_factory=Counter)    # latency-0 runs only
    exec_runs: Counter = field(default_factory=Counter)
    approx_makespans: list[float] = field(default_factory=list)
    mcp_messages: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    plan_digest: str = ""
    mc_digest: str = ""


def _solve(program, job: Job, instance):
    limits = program.ame.SolveLimits(time_s=NO_TIME_LIMIT, high_level_expansions=job.cap)
    if job.solver == "ame":
        return program.ame.solve_ame(instance, limits, recompute_labels=job.relabel)
    return program.adapted_cbs.solve_adapted_cbs(instance, limits)


def run_pass(program, jobs: tuple[Job, ...], mc_seed: int, pace=None) -> PassResult:
    """One pass over the jobs.

    `pace()`, if given, runs after every solve and every monte_carlo call and
    returns the scale for the call just timed.  Solve and Monte Carlo times
    are stored scaled, `seconds` unscaled, and `scale` is the mean scale
    weighted by the time of each call.  The pass time excludes pacing.
    """
    out = PassResult()
    plan_hash, mc_hash = hashlib.sha256(), hashlib.sha256()
    paced = timed = weighted = 0.0

    def scale_of(seconds: float) -> float:
        nonlocal paced, timed, weighted
        if pace is None:
            return 1.0
        t0 = perf_counter()
        factor = pace()
        paced += perf_counter() - t0
        timed += seconds
        weighted += seconds * factor
        return factor

    t_pass = perf_counter()
    for job in jobs:
        instance = make_instance(program, job)
        checksum = program.mapio.instance_checksum(instance)
        t0 = perf_counter()
        result = _solve(program, job, instance)
        seconds = perf_counter() - t0
        out.solve_s.append(seconds * scale_of(seconds))

        out.attempted[job.solver] += 1
        out.counters[f"{job.solver}.hl.expanded"] += result.high_level_expanded
        if job.solver == "ame":
            out.counters["ame.ll.expanded"] += result.low_level_expanded
            out.counters["ame.key_decreases"] += result.key_decreases
        outcome = (f"{job.label} {result.status} hl={result.high_level_expanded} "
                   f"ll={result.low_level_expanded} kd={result.key_decreases}")
        out.outcomes.append(outcome)
        plan_hash.update(outcome.encode())
        if not result.solved:
            continue
        out.solved[job.solver] += 1
        plan = result.plan
        report = program.model.validate_plan(instance, plan)
        if not report.is_valid:
            out.errors.append(f"{job.label}: solved plan fails validate_plan "
                              f"({len(report.conflicts)} conflicts, "
                              f"{len(report.path_errors)} path errors)")
            continue

        probs = [a.delay_prob for a in instance.agents]
        labeled = program.dependency.compute_labels(plan, probs)
        out.approx_makespans.append(program.dependency.approximate_average_makespan(labeled))
        dg = program.dependency.build_partial_order(plan)
        reduced = program.dependency.transitive_reduction(dg)
        program.dependency.message_schedule(reduced, plan)
        reduced_inter = len(reduced.inter_agent_edges)
        out.counters["dependency.reduced_inter_edges"] += reduced_inter

        text = program.mapio.plan_to_json(plan, checksum, job.solver)
        out.counters["mapio.plan_json.bytes"] += len(text.encode())
        plan_hash.update(text.encode())

        fsp_messages = (plan.n_agents - 1) * plan.sum_indices
        for run in job.runs:
            where = f"{job.label} {run.policy} latency={run.latency}"
            t0 = perf_counter()
            try:
                stats = program.simulate.monte_carlo(instance, labeled, run.policy, run.runs,
                                                     mc_seed, latency=run.latency)
            except RuntimeError as exc:   # monte_carlo raises on deadlock
                out.errors.append(f"{where}: {exc}")
                continue
            seconds = perf_counter() - t0
            out.mc_s[run.policy] += seconds * scale_of(seconds)
            done = run.runs - stats.timeouts
            steps = round(stats.mean_makespan * done) if done else 0
            out.mc_runs[run.policy] += run.runs
            out.mc_done += done
            out.counters["simulate.steps"] += steps
            out.counters[f"simulate.steps.{run.policy}"] += steps
            if run.latency == 0 and run.policy != "dummy":
                out.exec_steps[run.policy] += steps
                out.exec_runs[run.policy] += done
            if run.policy == "mcp":
                out.mcp_messages.append(stats.messages)
            mc_hash.update(f"{where} {stats.as_dict()}".encode())

            if stats.timeouts:
                out.errors.append(f"{where}: {stats.timeouts} of {run.runs} runs timed out")
            if run.policy != "dummy" and stats.mean_collisions != 0:
                out.errors.append(f"{where}: collisions under a robust policy")
            if run.policy == "mcp" and stats.messages != reduced_inter:
                out.errors.append(f"{where}: {stats.messages} messages per run, "
                                  f"reduced inter-agent edges {reduced_inter}")
            if run.policy == "fsp" and stats.messages != fsp_messages:
                out.errors.append(f"{where}: {stats.messages} messages per run, "
                                  f"(m-1)*sum(X_i) = {fsp_messages}")
    out.seconds = perf_counter() - t_pass - paced
    out.scale = weighted / timed if timed else 1.0
    out.plan_digest = plan_hash.hexdigest()
    out.mc_digest = mc_hash.hexdigest()
    return out
