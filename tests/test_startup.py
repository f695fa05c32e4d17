"""Every ``latticecalc`` call pays for its imports, so the command line's
import stays lean: it loads every module of the package eagerly, and none
of ``dataclasses``, ``inspect`` (which ``dataclasses`` pulls in) or
``hashlib`` (which only file inputs need)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticecalc

PACKAGE = Path(latticecalc.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
HEAVY = ("dataclasses", "inspect", "hashlib")
MODULES = ("caps", "cohomology", "interaction", "linalg", "localfn", "sitegraph",
           "transitions", "uniform", "cli")

PROBE = """
import sys
before = set(sys.modules)
import latticecalc.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def modules_added_by_importing_the_cli() -> set[str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return set(done.stdout.split())


def test_importing_the_cli_loads_every_module_and_nothing_heavy():
    added = modules_added_by_importing_the_cli()
    assert {f"latticecalc.{name}" for name in MODULES} <= added
    assert added.isdisjoint(HEAVY)


def imported_modules(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert "dataclasses" not in imported_modules(tree)


@pytest.mark.parametrize("source", [
    "import dataclasses",
    "import os, dataclasses as dc",
    "from dataclasses import dataclass",
    "def f():\n    from dataclasses import replace",
])
def test_the_guard_sees_each_kind_of_import(source):
    assert "dataclasses" in imported_modules(ast.parse(source))
