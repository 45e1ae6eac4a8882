"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pipeline import load_program, run_pass  # noqa: E402
from tracer import HOOKS, LAYER_UNITS, LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Job, Run  # noqa: E402

SMALL = (
    Job("random", 8, 0, "ame", 200, (Run("mcp", 3), Run("fsp", 2), Run("dummy", 2),
                                     Run("mcp", 2, latency=2))),
    Job("random", 8, 1, "ame", 200, (Run("mcp", 2),), relabel=True),
    Job("warehouse", 6, 1000, "cbs", 200, (Run("fsp", 2),)),
)


@pytest.fixture(scope="module")
def program():
    return load_program()


def test_every_hooked_name_resolves(program):
    for mod, attr, layer, _ in HOOKS:
        assert callable(getattr(getattr(program, mod), attr)), f"{mod}.{attr}"
        assert layer in LAYERS
    tracer = Tracer()
    tracer.install(program)
    tracer.uninstall()
    assert tracer.absent == []


def test_tracing_leaves_plans_and_results_unchanged(program):
    plain = run_pass(program, SMALL, mc_seed=5)
    tracer = Tracer()
    tracer.install(program)
    try:
        traced = run_pass(program, SMALL, mc_seed=5)
    finally:
        tracer.uninstall()
    assert plain.errors == [] and traced.errors == []
    for key in ("plan_digest", "mc_digest", "outcomes", "counters"):
        assert getattr(plain, key) == getattr(traced, key), key
    assert {sp.name for sp in tracer.spans} == {f"{mod}.{attr}" for mod, attr, _, _ in HOOKS}
    metrics = layer_metrics(tracer.spans, traced.counters)
    run_level = {"trace.pass_s", "trace.overhead_s", "trace.overhead_frac", "hooks.absent"}
    assert set(metrics) | run_level == set(LAYER_UNITS)
    for layer in LAYERS:
        assert metrics[f"self_s.{layer}"] > 0, layer
    # every instrumented function is restored after uninstall
    for mod, attr, _, _ in HOOKS:
        assert not hasattr(getattr(getattr(program, mod), attr), "__wrapped__")


def test_self_time_subtracts_children(program):
    tracer = Tracer()
    tracer.install(program)
    try:
        run_pass(program, SMALL[:1], mc_seed=1)
    finally:
        tracer.uninstall()
    for k, sp in enumerate(tracer.spans):
        children = [c for c in tracer.spans if c.parent == k]
        assert sp.self_s == pytest.approx(sp.seconds - sum(c.seconds for c in children))
        assert sp.self_s >= -1e-9


def test_absent_hook_is_reported_not_fatal(program):
    # a refactor that removes the scalar run_execution from simulate
    stub = SimpleNamespace(**{k: v for k, v in vars(program.simulate).items()
                              if k != "run_execution"})
    refactored = SimpleNamespace(**(vars(program) | {"simulate": stub}))
    tracer = Tracer()
    tracer.install(refactored)
    tracer.uninstall()
    assert tracer.absent == [("simulate", "run_execution", "simulate")]


def test_gate_rejects_a_wrong_message_count(program, monkeypatch):
    real = program.simulate.monte_carlo

    def one_message_too_many(*args, **kwargs):
        stats = real(*args, **kwargs)
        stats.messages += 1
        return stats

    monkeypatch.setattr(program.simulate, "monte_carlo", one_message_too_many)
    errors = run_pass(program, SMALL[:1], mc_seed=1).errors
    assert any("reduced inter-agent edges" in e for e in errors)
    assert any("(m-1)*sum(X_i)" in e for e in errors)


def test_gate_rejects_an_invalid_plan(program, monkeypatch):
    real = program.ame.solve_ame

    def stuck_agent(*args, **kwargs):
        result = real(*args, **kwargs)
        plan = result.plan
        first = program.model.Path(plan.paths[0].vertices[:1])
        result.plan = program.model.Plan((first,) + plan.paths[1:])
        return result

    monkeypatch.setattr(program.ame, "solve_ame", stuck_agent)
    errors = run_pass(program, SMALL[:1], mc_seed=1).errors
    assert any("fails validate_plan" in e for e in errors)


def test_workloads_are_well_formed():
    for workload in WORKLOADS.values():
        solvers = {job.solver for job in workload.jobs}
        policies = {run.policy for job in workload.jobs for run in job.runs}
        # every end-to-end metric must exist, and be non-zero, on every workload
        assert solvers == {"ame", "cbs"}, workload.name
        assert policies == {"mcp", "fsp", "dummy"}, workload.name
        assert len({job.label for job in workload.jobs}) == len(workload.jobs)


def test_benchmark_json_lists_every_metric_with_its_unit():
    import json
    from pipeline import ROOT
    from run import UNITS
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
