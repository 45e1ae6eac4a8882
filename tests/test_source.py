"""Checks on the package source itself."""

import ast
from pathlib import Path

import mapf_dp

SOURCES = sorted(Path(mapf_dp.__file__).parent.glob("*.py"))


def test_no_bare_assert_in_package():
    # `python -O` strips assert statements, so an invariant must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
