"""The package imports only the standard library, numpy and itself; scipy
and the other test tools stay out of ``src/fkclt``."""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fkclt"
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
