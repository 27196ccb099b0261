"""The package imports only the standard library, numpy and itself; scipy
and the other test tools stay out of ``src/fkclt``.  The suite imports only
what ``pyproject.toml`` declares, so ``pip install .[test]`` can collect it."""

from __future__ import annotations

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fkclt"
TESTS = ROOT / "tests"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fkclt"}


def imported_roots(path: pathlib.Path) -> set:
    """Top-level names of the absolute imports anywhere in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_fkclt(path):
    assert imported_roots(path) <= ALLOWED, imported_roots(path) - ALLOWED


def test_the_guard_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom .core import x\n\ndef f():\n    from scipy import stats\n")
    assert imported_roots(module) - ALLOWED == {"scipy"}


def declared_requirements() -> set:
    """Distribution names in the project's dependencies and its test extra."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_") for r in requirements}


def test_suite_imports_are_declared():
    suite = sorted(TESTS.glob("*.py"))
    exempt = set(sys.stdlib_module_names) | {"fkclt"} | {path.stem for path in suite}
    used = set().union(*map(imported_roots, suite)) - exempt
    assert used <= declared_requirements(), used - declared_requirements()
