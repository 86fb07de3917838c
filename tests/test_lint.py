"""Source rules that hold for every module of the package."""

import ast
import sys
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


def test_runtime_imports_are_stdlib():
    """The package has no runtime dependency outside the standard library:
    every import is relative or names a standard-library module."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []
