"""Hook table and span tracer for the traced benchmark run.

The tracer replaces module attributes of mapf_dp with timing wrappers while
it is installed, so calls from the benchmark and calls between the
program's own modules are both timed; the program's files are not changed.
A hooked name that no longer exists is reported as absent for its layer
instead of stopping the run, so the table survives refactors that rename or
remove functions.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer, tag) -- tag is (position, keyword) of an
# argument copied onto the span, or None.
POLICY_ARG = (2, "policy")
HOOKS = (
    ("generate", "generate_random_instance", "generate", None),
    ("generate", "generate_warehouse_instance", "generate", None),
    ("model", "validate_plan", "model", None),
    ("model", "enumerate_conflicts", "model", None),
    ("ame", "enumerate_conflicts", "model", None),
    ("ame", "find_earliest_conflict", "model", None),
    ("adapted_cbs", "find_earliest_conflict", "model", None),
    ("ame", "solve_ame", "ame", None),
    ("ame", "low_level_search", "ame", None),
    ("ame", "compute_labels", "dependency", None),
    ("adapted_cbs", "solve_adapted_cbs", "adapted_cbs", None),
    ("adapted_cbs", "shortest_path_under_constraints", "adapted_cbs", None),
    ("dependency", "build_partial_order", "dependency", None),
    ("dependency", "transitive_reduction", "dependency", None),
    ("dependency", "message_schedule", "dependency", None),
    ("dependency", "compute_labels", "dependency", None),
    ("simulate", "build_partial_order", "dependency", None),
    ("simulate", "transitive_reduction", "dependency", None),
    ("simulate", "message_schedule", "dependency", None),
    ("simulate", "monte_carlo", "simulate", POLICY_ARG),
    ("simulate", "run_execution", "simulate", POLICY_ARG),
    ("mapio", "instance_checksum", "mapio", None),
    ("mapio", "plan_to_json", "mapio", None),
)
LAYERS = ("generate", "model", "ame", "adapted_cbs", "dependency", "simulate", "mapio")
LAYER_OF = {f"{mod}.{attr}": layer for mod, attr, layer, _ in HOOKS}

SOLVER_SPANS = {"ame.solve_ame", "adapted_cbs.solve_adapted_cbs"}
CONFLICT_SPANS = {"model.enumerate_conflicts", "ame.enumerate_conflicts",
                  "ame.find_earliest_conflict", "adapted_cbs.find_earliest_conflict"}


_SECONDS = ("model.conflicts.s", "model.conflicts.s.ame", "model.conflicts.s.cbs",
            "model.validate.s", "ame.solve.s", "ame.labels.s", "ame.ll.s", "ame.hl.self_s",
            "cbs.solve.s", "cbs.ll.s", "cbs.hl.self_s", "dependency.partial_order.s",
            "dependency.reduction.s", "dependency.schedule.s", "dependency.labels.s",
            "simulate.mc.s.mcp", "simulate.mc.s.fsp", "simulate.mc.s.dummy",
            "mapio.plan_json.s", "generate.s", *(f"self_s.{layer}" for layer in LAYERS),
            "trace.pass_s", "trace.overhead_s")
_RATES = ("ame.ll.expanded_per_s", "cbs.hl.nodes_per_s", "simulate.steps_per_s.mcp",
          "simulate.steps_per_s.fsp", "simulate.steps_per_s.dummy")
_COUNTS = ("model.conflicts.calls", "ame.ll.calls", "ame.ll.expanded", "ame.hl.expanded",
           "ame.key_decreases", "cbs.hl.expanded", "dependency.reduced_inter_edges",
           "simulate.steps", "hooks.absent")
LAYER_UNITS = {
    **dict.fromkeys(_SECONDS, "s"), **dict.fromkeys(_RATES, "1/s"),
    **dict.fromkeys(_COUNTS, "count"), "ame.ll.fail_frac": "ratio",
    "trace.overhead_frac": "ratio", "mapio.plan_json.bytes": "bytes",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "tag", "failed")

    def __init__(self, name: str, parent: int, tag):
        self.name = name
        self.parent = parent
        self.tag = tag
        self.start = self.end = self.child_s = 0.0
        self.failed = False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    def as_list(self) -> list:
        return [self.name, self.parent, self.start, self.end, self.tag, self.failed]


class Tracer:
    """Records spans in memory while installed; `spans` is reset by the caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[tuple[str, str, str]] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self, program) -> None:
        self.absent = []
        for mod, attr, layer, tag in HOOKS:
            fn = getattr(getattr(program, mod, None), attr, None)
            if not callable(fn):
                self.absent.append((mod, attr, layer))
                continue
            module = getattr(program, mod)
            setattr(module, attr, self._wrap(f"{mod}.{attr}", fn, tag))
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    def _wrap(self, name: str, fn, tag_arg):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = None
            if tag_arg is not None:
                pos, key = tag_arg
                tag = args[pos] if len(args) > pos else kwargs.get(key)
            span = Span(name, stack[-1] if stack else -1, tag)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start

        return traced


def layer_metrics(spans: list[Span], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and exact counters."""
    dur: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    failed: dict[str, int] = defaultdict(int)
    by_policy: dict[tuple[str, object], float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    in_solver: dict[tuple[str, str], float] = defaultdict(float)   # (solver, child)
    solver_conflict_calls = 0
    ll_ok_s = 0.0
    for sp in spans:
        short = sp.name.split(".", 1)[1]
        dur[short] += sp.seconds
        self_s[short] += sp.self_s
        calls[short] += 1
        failed[short] += sp.failed
        layer_self[LAYER_OF[sp.name]] += sp.self_s
        if sp.tag is not None:
            by_policy[(short, sp.tag)] += sp.seconds
        parent = spans[sp.parent].name if sp.parent >= 0 else ""
        if parent in SOLVER_SPANS:
            in_solver[(parent, sp.name)] += sp.seconds
            solver_conflict_calls += sp.name in CONFLICT_SPANS
        if sp.name == "ame.low_level_search" and not sp.failed:
            ll_ok_s += sp.seconds

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def conflicts_in(solver):
        return sum(in_solver[(solver, name)] for name in CONFLICT_SPANS)

    out = {
        "model.conflicts.s": conflicts_in("ame.solve_ame")
        + conflicts_in("adapted_cbs.solve_adapted_cbs"),
        "model.conflicts.s.ame": conflicts_in("ame.solve_ame"),
        "model.conflicts.s.cbs": conflicts_in("adapted_cbs.solve_adapted_cbs"),
        "model.conflicts.calls": solver_conflict_calls,
        "model.validate.s": dur["validate_plan"],
        "ame.ll.s": dur["low_level_search"],
        "ame.ll.calls": calls["low_level_search"],
        "ame.ll.fail_frac": failed["low_level_search"] / max(calls["low_level_search"], 1),
        "ame.ll.expanded": counters["ame.ll.expanded"],
        "ame.ll.expanded_per_s": rate(counters["ame.ll.expanded"], ll_ok_s),
        "ame.solve.s": dur["solve_ame"],
        "ame.labels.s": in_solver[("ame.solve_ame", "ame.compute_labels")],
        "ame.hl.self_s": self_s["solve_ame"],
        "ame.hl.expanded": counters["ame.hl.expanded"],
        "ame.key_decreases": counters["ame.key_decreases"],
        "cbs.solve.s": dur["solve_adapted_cbs"],
        "cbs.ll.s": dur["shortest_path_under_constraints"],
        "cbs.hl.self_s": self_s["solve_adapted_cbs"],
        "cbs.hl.expanded": counters["cbs.hl.expanded"],
        "cbs.hl.nodes_per_s": rate(counters["cbs.hl.expanded"], dur["solve_adapted_cbs"]),
        "dependency.partial_order.s": dur["build_partial_order"],
        "dependency.reduction.s": dur["transitive_reduction"],
        "dependency.schedule.s": dur["message_schedule"],
        "dependency.labels.s": self_s["compute_labels"],
        "dependency.reduced_inter_edges": counters["dependency.reduced_inter_edges"],
        "simulate.steps": counters["simulate.steps"],
        "mapio.plan_json.s": dur["plan_to_json"],
        "mapio.plan_json.bytes": counters["mapio.plan_json.bytes"],
        "generate.s": dur["generate_random_instance"] + dur["generate_warehouse_instance"],
    }
    for policy in ("mcp", "fsp", "dummy"):
        out[f"simulate.mc.s.{policy}"] = by_policy[("monte_carlo", policy)]
        out[f"simulate.steps_per_s.{policy}"] = rate(
            counters[f"simulate.steps.{policy}"], by_policy[("run_execution", policy)])
    for layer in LAYERS:
        out[f"self_s.{layer}"] = layer_self[layer]
    return out
