"""File formats: ASCII maps, agent CSV lines, and JSON plan files."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path as FilePath
from sys import float_info

from .model import AgentSpec, Graph, Instance, MapError, Path, Plan, parse_map, serialize_map


def agents_to_text(instance: Instance) -> str:
    """One line per agent: id,start_x,start_y,goal_x,goal_y,delay_prob."""
    meta = instance.graph.grid
    if meta is None:
        raise MapError("agents file needs grid coordinates")
    lines = []
    for a in instance.agents:
        sx, sy = meta.cell_of(a.start)
        gx, gy = meta.cell_of(a.goal)
        lines.append(f"{a.id},{sx},{sy},{gx},{gy},{a.delay_prob:.9g}")
    return "\n".join(lines) + "\n"


def agents_from_text(graph: Graph, text: str) -> tuple[AgentSpec, ...]:
    """Inverse of `agents_to_text`: the agents ordered by id, which must run
    from 0 to m - 1 over the m agent lines, in any order; raises MapError
    naming the bad line."""
    meta = graph.grid
    if meta is None:
        raise MapError("agents file needs grid coordinates")
    agents = []
    seen: dict[int, int] = {}   # agent id -> line number
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise MapError(f"agents line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            aid, sx, sy, gx, gy = (int(p) for p in parts[:5])
            spec = AgentSpec(aid, meta.vertex_at(sx, sy), meta.vertex_at(gx, gy),
                             float(parts[5]))
        except ValueError as exc:   # int/float syntax, AgentSpec, or a MapError
            raise MapError(f"agents line {lineno}: {exc}") from None
        if aid in seen:
            raise MapError(f"agents line {lineno}: duplicate agent id {aid}")
        seen[aid] = lineno
        agents.append(spec)
    if not agents:
        raise MapError("agents file has no agent line")
    for aid, lineno in seen.items():
        if not 0 <= aid < len(agents):
            raise MapError(f"agents line {lineno}: agent id {aid} is outside "
                           f"0 ... {len(agents) - 1}")
    return tuple(sorted(agents, key=lambda a: a.id))


def instance_checksum(instance: Instance) -> str:
    """Stable digest of a grid instance's map and agents files, for
    plan/instance pairing; a graph without a grid raises `MapError`."""
    h = hashlib.sha256()
    h.update(serialize_map(instance.graph).encode())
    h.update(agents_to_text(instance).encode())
    return h.hexdigest()[:16]


def write_instance(instance: Instance, map_path, agents_path) -> None:
    FilePath(map_path).write_text(serialize_map(instance.graph))
    FilePath(agents_path).write_text(agents_to_text(instance))


def read_instance(map_path, agents_path) -> Instance:
    graph = parse_map(FilePath(map_path).read_text())
    agents = agents_from_text(graph, FilePath(agents_path).read_text())
    return Instance(graph, agents)


def plan_to_json(plan: Plan, checksum: str, solver: str = "") -> str:
    doc = {
        "checksum": checksum,
        "solver": solver,
        "agents": [
            {
                "id": i,
                "path": list(p.vertices),
                **({"labels": [round(v, 9) for v in p.labels]} if p.labels else {}),
            }
            for i, p in enumerate(plan.paths)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def plan_from_json(text: str) -> tuple[Plan, str]:
    """Parse the document written by `plan_to_json`, paths sorted by agent id,
    which must run from 0 to n - 1 over the n entries; raises MapError when
    it is not one."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MapError(f"plan file is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MapError("plan file must hold a JSON object")
    entries = doc.get("agents")
    checksum = doc.get("checksum", "")
    if not isinstance(entries, list):
        raise MapError("plan file needs an 'agents' list")
    if not isinstance(checksum, str):
        raise MapError("plan file 'checksum' must be a string")
    by_id: dict[int, Path] = {}
    for k, e in enumerate(entries):
        if not (isinstance(e, dict) and type(e.get("id")) is int
                and isinstance(e.get("path"), list) and e["path"]
                and all(type(v) is int for v in e["path"])):
            raise MapError(f"plan agents[{k}]: needs an integer 'id' and a non-empty "
                           "'path' list of integer vertices")
        labels = e.get("labels")   # finite: no bool, NaN, infinity or int past the floats
        if labels is not None and not (
                isinstance(labels, list) and len(labels) == len(e["path"])
                and all(type(v) in (int, float) and abs(v) <= float_info.max for v in labels)):
            raise MapError(f"plan agents[{k}]: 'labels' must be a list of finite numbers, "
                           "one per path vertex")
        if e["id"] in by_id:
            raise MapError(f"plan agents[{k}]: duplicate agent id {e['id']}")
        if not 0 <= e["id"] < len(entries):
            raise MapError(f"plan agents[{k}]: agent id {e['id']} is outside "
                           f"0 ... {len(entries) - 1}")
        by_id[e["id"]] = Path(tuple(e["path"]), None if labels is None else tuple(labels))
    return Plan(tuple(by_id[i] for i in sorted(by_id))), checksum


def write_plan(path, plan: Plan, checksum: str, solver: str = "") -> None:
    FilePath(path).write_text(plan_to_json(plan, checksum, solver))


def read_plan(path) -> tuple[Plan, str]:
    return plan_from_json(FilePath(path).read_text())
