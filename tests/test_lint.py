"""Source rules that hold for every module of the package."""

import ast
from pathlib import Path

import semistable_lab

SOURCES = sorted(Path(semistable_lab.__file__).parent.glob("*.py"))


def test_no_bare_asserts():
    """Invariants raise AssertionError explicitly: a bare `assert` is
    stripped under `python -O`."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(SOURCES) > 1
    assert found == []
