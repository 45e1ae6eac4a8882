"""Multi-agent path finding with per-agent stochastic action delays:
planning, robust decentralized execution policies, and Monte Carlo
benchmarking."""

from .model import (AgentSpec, Conflict, ConflictKind, Graph, Instance, Path,
                    Plan, find_earliest_conflict, parse_map, serialize_map,
                    shortest_path_distances, validate_plan)
from .generate import (WarehouseParams, generate_random_instance,
                       generate_warehouse_instance, resample_delays)
from .dependency import (DependencyGraph, approximate_average_makespan,
                         build_partial_order, compute_labels, message_schedule,
                         transitive_reduction)
from .simulate import ExecutionTrace, RunStats, monte_carlo, run_execution, stats_ci
from .ame import Constraint, SolveLimits, SolveResult, solve_ame
from .adapted_cbs import solve_adapted_cbs

__all__ = [
    "AgentSpec", "Conflict", "ConflictKind", "Graph", "Instance", "Path", "Plan",
    "find_earliest_conflict", "parse_map", "serialize_map",
    "shortest_path_distances", "validate_plan",
    "WarehouseParams", "generate_random_instance", "generate_warehouse_instance",
    "resample_delays",
    "DependencyGraph", "approximate_average_makespan",
    "build_partial_order", "compute_labels", "message_schedule",
    "transitive_reduction",
    "ExecutionTrace", "RunStats", "monte_carlo", "run_execution", "stats_ci",
    "Constraint", "SolveLimits", "SolveResult", "solve_ame",
    "solve_adapted_cbs",
]
