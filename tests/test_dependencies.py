"""The package imports only the standard library, numpy and itself; scipy
and the other test tools stay out of ``src/fkclt``.  Of numpy it uses only
the public modules: the private ones (``numpy._core``, ``numpy.core``,
``numpy.lib._*``) move between releases.  Only ``core`` builds cumulative
sums, so the threshold layout the sampler reads stays in one module.  No
``*_raw`` routine parses a kernel choice: its public caller does.  The
reference kit ``tests/refkit.py`` imports only the standard library and
numpy, never fkclt, so no fault in the package reaches the values the
exact tests expect.  The suite imports only what ``pyproject.toml``
declares, so ``pip install .[test]`` can collect it.  Importing the CLI
leaves ``multiprocessing`` unloaded: only a pooled run needs it."""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fkclt"
TESTS = ROOT / "tests"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fkclt"}
PRIVATE_NUMPY = re.compile(r"numpy\.(_core|core|lib\._)")


def imported_roots(path: pathlib.Path) -> set:
    """Top-level names of the absolute imports anywhere in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def numpy_names(path: pathlib.Path) -> set:
    """Dotted numpy names a module imports or reads: ``import numpy.a``,
    ``from numpy.a import b`` (as ``numpy.a.b``), and attribute chains on a
    name bound to numpy or to one of its modules (``np.a.b``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
                bound[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id]] + chain[::-1]))
    return {name for name in names if name.split(".")[0] == "numpy"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_fkclt(path):
    assert imported_roots(path) <= ALLOWED, imported_roots(path) - ALLOWED


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_numpy_module(path):
    private = {name for name in numpy_names(path) if PRIVATE_NUMPY.match(name)}
    assert not private, private


def test_the_guard_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom .core import x\n\ndef f():\n    from scipy import stats\n")
    assert imported_roots(module) - ALLOWED == {"scipy"}


def test_the_guard_sees_a_private_numpy_module(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy as np\n"
        "import numpy.core.multiarray\n"
        "from numpy._core import umath\n"
        "from numpy.lib import _function_base_impl as fb\n"
        "from numpy.lib.stride_tricks import sliding_window_view\n"
        "y = np._core.umath.add\n"
        "z = np.add.reduce(np.lib.stride_tricks)\n"
    )
    private = {name for name in numpy_names(module) if PRIVATE_NUMPY.match(name)}
    assert private == {
        "numpy.core.multiarray",
        "numpy._core.umath",
        "numpy.lib._function_base_impl",
        "numpy._core.umath.add",
        "numpy._core",
    }


CUMULATIVE = {"cumsum", "cumulative_sum"}


def cumsum_calls(path: pathlib.Path) -> list:
    """Lines of a module's cumulative-sum calls, as a function
    (``np.cumsum(x)``, ``cumsum(x)``) or as a method (``x.cumsum()``)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and {getattr(node.func, "attr", None), getattr(node.func, "id", None)} & CUMULATIVE
    )


@pytest.mark.parametrize(
    "path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "core.py"}), ids=lambda p: p.name
)
def test_only_core_builds_cdfs(path):
    assert not cumsum_calls(path), cumsum_calls(path)


def test_the_guard_sees_a_cumsum_call(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy as np\n"
        "from numpy import cumsum\n"
        "a = np.cumsum([1.0])\n"
        "b = a.cumsum(axis=0)\n"
        "c = cumsum(a)\n"
        "d = np.cumulative_sum(a)\n"
        "e = np.sum(a)\n"
    )
    assert cumsum_calls(module) == [3, 4, 5, 6]


def raw_breaches(path: pathlib.Path) -> list:
    """Lines where a function named ``*_raw`` takes a parameter named
    ``choice`` or calls ``_transport``: the raw routines take the kernel as
    the bool that their public callers parsed."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.FunctionDef) and node.name.endswith("_raw")):
            continue
        args = node.args
        if "choice" in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
            lines.append(node.lineno)
        lines += [
            call.lineno
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and "_transport" in {getattr(call.func, "attr", None), getattr(call.func, "id", None)}
        ]
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_raw_routines_take_the_parsed_kernel(path):
    assert not raw_breaches(path), raw_breaches(path)


def test_the_guard_sees_a_raw_routine_parse_the_choice(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def _rows_raw(choice, mu):\n"
        "    return mu\n"
        "def _cov_raw(transport, mu):\n"
        "    return core._transport(transport)\n"
        "def _bg_raw(mu, *, choice=None):\n"
        "    return _transport(choice)\n"
        "def cov_operator(choice, mu):\n"
        "    return _cov_raw(_transport(choice), mu)\n"
    )
    assert raw_breaches(module) == [1, 4, 5, 6]


IMPORT_CALLS = {"__import__", "import_module"}


def kit_breaches(path: pathlib.Path) -> list:
    """Lines where a module imports anything but the standard library and
    numpy (fkclt, or a test module, which may import it), or names fkclt
    to an import call (``__import__("fkclt")``,
    ``importlib.import_module("fkclt.core")``)."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots = {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots = {node.module.split(".")[0] if node.level == 0 else "."}
        elif isinstance(node, ast.Call) and IMPORT_CALLS & {
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        }:
            roots = {str(a.value).split(".")[0] for a in node.args if isinstance(a, ast.Constant)}
            roots &= {"fkclt"}
        else:
            continue
        if roots - (ALLOWED - {"fkclt"}):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_reference_kit_imports_no_fkclt():
    assert not kit_breaches(TESTS / "refkit.py"), kit_breaches(TESTS / "refkit.py")


def test_the_guard_sees_an_fkclt_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import math\n"
        "import numpy as np\n"
        "import fkclt.core as core\n"
        "from fkclt import oracle\n"
        "import conftest\n"
        "from . import lawkit\n"
        "\n"
        "def f():\n"
        "    import importlib\n"
        "    a = importlib.import_module('fkclt.oracle')\n"
        "    return __import__('fkclt'), np.zeros(3), print('fkclt')\n"
    )
    assert kit_breaches(module) == [3, 4, 5, 6, 10, 11]


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


def test_importing_the_cli_loads_no_process_pool():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = "import sys, fkclt.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
