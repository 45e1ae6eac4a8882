"""Benchmark of the mapf_dp pipeline: solve -> validate -> schedule -> simulate.

    python3 perfbench/run.py --workload random-ame --seed 1 --seconds 22 --trace 0

Runs from the root of a checkout; imports the package from ./src.  Set-up
(a fresh import of the package plus generation of the workload's instances)
is repeated SETUP_REPS times and reported as a median.  One untimed warm-up
pass follows, then passes run until --seconds have elapsed (at least
MIN_PASSES).  With --trace 0 the end-to-end metrics are printed; with
--trace 1 untraced and traced passes alternate and the per-layer metrics of
the traced passes are printed, with the tracing overhead.

Every timing is scaled to the reference speed (see reference.py): the
machine this was built on drifts by tens of percent over minutes.  The
unscaled set-up and pass times are printed on a comment line.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The run exits with 1 when the
correctness gate or the determinism record fails, and with 2 when the
checkout holds no program.  Spans and the determinism record are written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pipeline import (ROOT, ProgramMissing, load_program, make_instance,  # noqa: E402
                      run_pass, source_digest)
from reference import REF_S, Pacer  # noqa: E402
from tracer import LAYER_UNITS, LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 15
MIN_PASSES = 3
MAX_SECONDS = 120.0     # stop adding passes past this, whatever --seconds says
OUT_DIR = Path(__file__).resolve().parent / "out"
POLICIES = ("mcp", "fsp", "dummy")
SOLVERS = ("ame", "cbs")

UNITS = {
    "setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "mc_done_frac": "ratio",
    "approx_makespan.mean": "steps", "messages.mcp": "count",
    **{f"solve_s.p50.{s}": "s" for s in SOLVERS},
    **{f"solved_frac.{s}": "ratio" for s in SOLVERS},
    **{f"mc_runs_per_s.{p}": "1/s" for p in POLICIES},
    **{f"exec_makespan.{p}": "steps" for p in ("mcp", "fsp")},
}


def numpy_version() -> str:
    return getattr(sys.modules.get("numpy"), "__version__", "not loaded")


def setup(workload):
    """Fresh import plus instance generation, repeated.

    Returns the last program, and the median set-up time both scaled to the
    reference speed and unscaled."""
    scaled_times, times = [], []
    pacer = Pacer()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        program = load_program()
        for job in workload.jobs:
            make_instance(program, job)
        times.append(perf_counter() - t0)
        scaled_times.append(times[-1] * pacer())
    return program, statistics.median(scaled_times), statistics.median(times)


def run_passes(program, workload, seed: int, seconds: float, tracer=None):
    """Warm-up, then timed passes.  Returns (untraced passes, traced passes,
    spans, reference times).

    The reference task runs after every solve and every monte_carlo call
    (see reference.Pacer).  With a tracer the order is P T P T ... P, so that each traced pass sits
    between two untraced ones.
    """
    run_pass(program, workload.jobs, seed)   # warm-up: caches, allocator, clocks
    plain, traced, spans, refs = [], [], [], []
    t0 = perf_counter()

    def timed_pass(traced_pass: bool):
        pacer = Pacer()
        if traced_pass:
            tracer.spans.clear()
            tracer.install(program)
        try:
            result = run_pass(program, workload.jobs, seed, pacer)
        finally:
            if traced_pass:
                tracer.uninstall()
        refs.extend(pacer.times)
        return result

    def done(n: int) -> bool:
        elapsed = perf_counter() - t0
        return n >= MIN_PASSES and (elapsed >= seconds or elapsed >= MAX_SECONDS)

    if tracer is None:
        while not done(len(plain)):
            plain.append(timed_pass(False))
        return plain, traced, spans, refs
    plain.append(timed_pass(False))
    while not done(len(traced) + 1):
        traced.append(timed_pass(True))
        spans.append(list(tracer.spans))
        plain.append(timed_pass(False))
    return plain, traced, spans, refs


def end_to_end(jobs, passes, setup_s: float) -> dict[str, float]:
    """End-to-end metrics; every timing is scaled to the reference speed."""
    first = passes[0]
    per_job = [statistics.median(p.solve_s[k] for p in passes) for k in range(len(jobs))]
    m = {"setup_s": setup_s,
         "pass_s": statistics.median(p.seconds * p.scale for p in passes)}
    for s in SOLVERS:
        m[f"solve_s.p50.{s}"] = statistics.median(
            t for t, job in zip(per_job, jobs) if job.solver == s)
        m[f"solved_frac.{s}"] = first.solved[s] / first.attempted[s]
    for p in POLICIES:
        m[f"mc_runs_per_s.{p}"] = statistics.median(q.mc_runs[p] / q.mc_s[p] for q in passes)
    m["mc_done_frac"] = first.mc_done / sum(first.mc_runs.values())
    m["approx_makespan.mean"] = statistics.fmean(first.approx_makespans)
    for p in ("mcp", "fsp"):
        m[f"exec_makespan.{p}"] = first.exec_steps[p] / first.exec_runs[p]
    m["messages.mcp"] = statistics.fmean(first.mcp_messages)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def workload_digest(workload) -> str:
    return hashlib.sha256(repr(workload.jobs).encode()).hexdigest()[:8]


def scaled(metrics: dict[str, float], scale: float) -> dict[str, float]:
    """Timings times scale, rates divided by it, counts unchanged."""
    factor = {"s": scale, "1/s": 1 / scale}
    return {k: v * factor.get(LAYER_UNITS[k], 1.0) for k, v in metrics.items()}


def traced_metrics(tracer, plain, traced, spans) -> dict[str, float]:
    """Median per-layer metrics over traced passes, plus the tracing overhead."""
    layers = [scaled(layer_metrics(s, p.counters), p.scale) for s, p in zip(spans, traced)]
    metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    plain_s = statistics.median(p.seconds * p.scale for p in plain)
    overhead = statistics.median(
        t.seconds * t.scale - (a.seconds * a.scale + b.seconds * b.scale) / 2
        for t, a, b in zip(traced, plain, plain[1:]))
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / plain_s
    metrics["hooks.absent"] = len(tracer.absent)
    metrics["trace.pass_s"] = statistics.median(p.seconds * p.scale for p in traced)
    return metrics


def print_trace_report(tracer, metrics: dict, span_file: Path) -> None:
    def share(part, whole):
        return f"{metrics[part] / metrics[whole]:.1%}" if metrics[whole] else "n/a"

    for mod, attr, layer in tracer.absent:
        print(f"# hook absent: {mod}.{attr} (layer {layer})")
    shares = ", ".join(f"{layer} {share('self_s.' + layer, 'trace.pass_s')}"
                       for layer in LAYERS)
    print(f"# self time as share of the traced pass "
          f"({metrics['trace.pass_s']:.3f} s): {shares}")
    print(f"# share of solve_ame time: conflicts {share('model.conflicts.s.ame', 'ame.solve.s')}, "
          f"low level {share('ame.ll.s', 'ame.solve.s')}, "
          f"labels {share('ame.labels.s', 'ame.solve.s')}; of solve_adapted_cbs time: "
          f"conflicts {share('model.conflicts.s.cbs', 'cbs.solve.s')}, "
          f"low level {share('cbs.ll.s', 'cbs.solve.s')}")
    print(f"# tracing overhead {metrics['trace.overhead_s']:+.3f} s per pass "
          f"({metrics['trace.overhead_frac']:+.1%} of the untraced pass)")
    print(f"# spans written to {span_file.relative_to(ROOT)}")


def check_record(name: str, record: dict, errors: list[str]) -> None:
    """Compare a determinism record with the one an earlier run of this
    program left under the same name, or leave it for later runs."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"record-{name}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        for key, value in record.items():
            if earlier.get(key) != value:
                errors.append(f"determinism: {key} differs from the earlier run in {path.name}")
    else:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)


def write_spans(workload: str, seed: int, spans: list) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for k, pass_spans in enumerate(spans):
            for sp in pass_spans:
                fh.write(json.dumps([k] + sp.as_list()) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        program, setup_s, raw_setup_s = setup(workload)
        source = source_digest()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    plain, traced, spans, refs = run_passes(program, workload, args.seed, args.seconds, tracer)
    every = plain + traced

    errors = sorted({e for p in every for e in p.errors})
    for key in ("plan_digest", "mc_digest", "outcomes", "counters"):
        if any(getattr(p, key) != getattr(every[0], key) for p in every):
            errors.append(f"determinism: {key} differs between passes of this run")
    first = every[0]
    # plans and solve outcomes do not depend on --seed; Monte Carlo results do
    plan_counters = {k: v for k, v in sorted(first.counters.items())
                     if not k.startswith("simulate.")}
    mc_counters = {k: v for k, v in sorted(first.counters.items()) if k.startswith("simulate.")}
    record_name = f"{workload.name}-{source}-{workload_digest(workload)}"
    check_record(record_name,
                 {"plan_digest": first.plan_digest, "outcomes": first.outcomes,
                  "counters": plan_counters}, errors)
    check_record(f"{record_name}-seed{args.seed}",
                 {"mc_digest": first.mc_digest, "counters": mc_counters}, errors)

    if tracer is None:
        metrics, units = end_to_end(workload.jobs, plain, setup_s), UNITS
    else:
        metrics, units = traced_metrics(tracer, plain, traced, spans), LAYER_UNITS
    capped = sum(first.attempted.values()) - sum(first.solved.values())
    failed_runs = sum(first.mc_runs.values()) - first.mc_done
    attempted = sum(first.attempted.values()) + sum(first.mc_runs.values())
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced timed passes after 1 warm-up; "
          f"setup x{SETUP_REPS}; python {platform.python_version()}, "
          f"numpy {numpy_version()}, nproc {os.cpu_count()}")
    raw_pass_s = statistics.median(p.seconds for p in every)
    print(f"# unscaled: setup {raw_setup_s:.4f} s, pass {raw_pass_s:.4f} s; reference task "
          f"mean {statistics.fmean(refs):.5f} s over {len(refs)} runs, "
          f"timings scaled to {REF_S} s")
    print(f"# plan digest {first.plan_digest} (source {source}); "
          f"counters {json.dumps(plan_counters | mc_counters)}")
    for outcome in first.outcomes:
        print(f"# outcome {outcome}")
    if tracer is not None:
        print_trace_report(tracer, metrics, write_spans(workload.name, args.seed, spans))
    for e in errors:
        print(f"# ERROR {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": capped + failed_runs,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
