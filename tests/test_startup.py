"""Every ``latticecalc`` call pays for its imports, so the command line's
import stays lean: it loads every module of the package eagerly, and none
of ``dataclasses``, ``inspect`` (which ``dataclasses`` pulls in), ``hashlib``
(OpenSSL), ``argparse`` (with ``gettext``), ``typing`` or ``pathlib``.  A
well-formed call of any subcommand never loads argparse or hashlib; help and
flag errors do load argparse, which answers them.  The probes run with
``-S``, so that modules ``site`` preloads cannot hide a heavy import."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticecalc
from latticecalc.cli import COMMANDS

PACKAGE = Path(latticecalc.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
HEAVY = ("dataclasses", "inspect", "hashlib", "_hashlib", "argparse", "gettext", "typing",
         "pathlib")
PARSING_AND_OPENSSL = ("argparse", "gettext", "hashlib", "_hashlib")
MODULES = ("caps", "cohomology", "interaction", "linalg", "localfn", "sitegraph",
           "transitions", "uniform", "cli")

PROBE = """
import sys
before = set(sys.modules)
import latticecalc.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""

# runs one call, then prints its exit status and every loaded module as the
# last line of stdout
CALL_PROBE = """
import sys
from latticecalc.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as stop:
    status = stop.code
print(status, *sorted(sys.modules))
"""


def run_probe(code: str, *argv: str, cwd=None) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    done = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout


def modules_added_by_importing_the_cli() -> set[str]:
    return set(run_probe(PROBE).split())


def test_importing_the_cli_loads_every_module_and_nothing_heavy():
    added = modules_added_by_importing_the_cli()
    assert {f"latticecalc.{name}" for name in MODULES} <= added
    assert added.isdisjoint(HEAVY)


def call(argv, cwd=None) -> tuple[int, set[str]]:
    status, *modules = run_probe(CALL_PROBE, *argv, cwd=cwd).splitlines()[-1].split()
    return int(status), set(modules)


FILES = {
    "fn.json": {"states": ["0", "1"], "base": "0",
                "graph": {"kind": "lattice_z", "k": 1, "window": [-6, 6]},
                "kind": "translated", "radius": 0,
                "template": [{"support": [0], "table": {"1": "1"}}]},
    "etaA.json": {"base": "0", "assignments": {"0": "1", "3": "1"}},
    "etaB.json": {"base": "0", "assignments": {"1": "1", "3": "1"}},
    "local.json": {"states": ["0", "1", "2"], "base": "0", "support": [0, 1],
                   "table": {"0,0": "1", "1,2": "3/2", "2,0": "-2"}},
}
SYSTEM = ("--interaction", "exclusion", "--graph", "lattice:1:-6:6", "--config", "etaA.json")
CALLS = {
    "consv": ("--interaction", "multispecies:2"),
    "exchangeable": ("--interaction", "quastel2"),
    "expand": ("--function", "local.json"),
    "rebase": ("--function", "fn.json", "--base", "1"),
    "diff": ("--function", "fn.json", "--from", "etaA.json", "--to", "etaB.json"),
    "neighbors": SYSTEM,
    "component": (*SYSTEM, "--max-states", "5"),
    "swap-path": (*SYSTEM, "--sites", "0", "1"),
    "invariant": ("--function", "fn.json", "--interaction", "exclusion",
                  "--probe", "etaA.json"),
    "h0": ("--interaction", "exclusion", "--graph", "path:3"),
    "extract": ("--function", "fn.json", "--interaction", "exclusion"),
    "kernel": ("--interaction", "exclusion", "--radius", "1", "--window=-4:4"),
}


def test_every_subcommand_has_a_probe_call():
    assert CALLS.keys() == COMMANDS.keys()


@pytest.mark.parametrize("command", CALLS)
def test_a_well_formed_call_loads_neither_argparse_nor_hashlib(command, tmp_path):
    for name, doc in FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    status, modules = call([command, *CALLS[command]], cwd=tmp_path)
    assert status == 0
    assert modules.isdisjoint(PARSING_AND_OPENSSL)


@pytest.mark.parametrize("argv,status", [
    (("--help",), 0),
    (("consv", "--interaction", "exclusion", "--no-such-flag"), 1),
], ids=["help", "bad-flag"])
def test_help_and_a_bad_flag_are_answered_by_argparse(argv, status):
    got, modules = call(argv)
    assert got == status and "argparse" in modules


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
