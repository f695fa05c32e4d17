"""One report path: each ``cmd_*`` handler of ``cli.py`` takes ``(args,
inputs)`` and returns its outputs, its checks and any lines, and ``main``
alone wraps them in a report through ``_emit``, which reads the command
name and the ``params`` from the parsed call and the command table.  A
source scan keeps the handlers from building any part of the envelope
again."""

import ast
from pathlib import Path

import pytest

from latticecalc import cli

CLI = Path(cli.__file__)


def _enclosing(tree: ast.AST) -> dict[int, str]:
    """id(node) -> name of the innermost function around it."""
    out = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                out[id(node)] = fn.name
    # ast.walk is breadth-first, so inner functions overwrote outer ones
    return out


def envelope_faults(tree: ast.AST) -> list[tuple[int, str]]:
    """Envelope work of ``tree`` outside ``main`` and ``_emit``: a call of
    ``_emit`` anywhere else, and in a ``cmd_*`` handler a signature other
    than ``(args, inputs)``, a ``params`` or ``inputs`` name of its own, or
    its command's name in a string that is not a key of a dict display."""
    where = _enclosing(tree)
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key in node.keys if key is not None}
    found = []
    for node in ast.walk(tree):
        name = where.get(id(node), "")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_emit" and name != "main"):
            found.append((node.lineno, "_emit outside main"))
        if not name.startswith("cmd_"):
            continue
        if isinstance(node, ast.FunctionDef) and node.name == name:
            if [a.arg for a in node.args.args] != ["args", "inputs"] or (
                    node.args.vararg or node.args.kwarg or node.args.kwonlyargs):
                found.append((node.lineno, "handler signature"))
        elif isinstance(node, ast.Name) and node.id == "params":
            found.append((node.lineno, "params in a handler"))
        elif (isinstance(node, ast.Name) and node.id == "inputs"
              and isinstance(node.ctx, ast.Store)):
            found.append((node.lineno, "inputs of a handler's own"))
        elif (isinstance(node, ast.Constant)
              and node.value == name[4:].replace("_", "-") and id(node) not in keys):
            found.append((node.lineno, "command name in a handler"))
    return found


def test_only_main_builds_a_report():
    tree = ast.parse(CLI.read_text(encoding="utf-8"), filename=str(CLI))
    assert envelope_faults(tree) == []


def test_every_command_has_an_enveloped_handler():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    handlers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_")}
    assert handlers == {handler.__name__ for handler, _, _ in cli.COMMANDS.values()}
    assert all(handler.__name__ == "cmd_" + name.replace("-", "_")
               for name, (handler, _, _) in cli.COMMANDS.items())


@pytest.mark.parametrize(
    "source,what",
    [
        ("def cmd_h0(args, inputs):\n    return _emit(args, inputs, {}, [])\n",
         "_emit outside main"),
        ("def helper(args):\n    _emit(args, {}, {}, [])\n", "_emit outside main"),
        ("def cmd_h0(args):\n    return {}, []\n", "handler signature"),
        ("def cmd_h0(args, inputs, extra=None):\n    return {}, []\n", "handler signature"),
        ("def cmd_h0(args, *, inputs):\n    return {}, []\n", "handler signature"),
        ("def cmd_h0(args, inputs):\n    params = {'graph': args.graph}\n    return {}, []\n",
         "params in a handler"),
        ("def cmd_h0(args, inputs):\n    inputs = {}\n    return {}, []\n",
         "inputs of a handler's own"),
        ("def cmd_swap_path(args, inputs):\n    log('swap-path')\n    return {}, []\n",
         "command name in a handler"),
    ],
)
def test_the_scan_sees_each_kind_of_fault(source, what):
    assert [kind for _, kind in envelope_faults(ast.parse(source))] == [what]


def test_the_scan_lets_main_outputs_and_other_names_through():
    source = (
        "def main(argv=None):\n"
        "    inputs = {}\n"
        "    return _emit(args, inputs, *args.func(args, inputs))\n"
        "def _emit(args, inputs, outputs, verification, lines=()):\n"
        "    params = {}\n"
        "    return 0\n"
        "def cmd_h0(args, inputs):\n"
        "    doc, inputs['graph'] = read(args.graph)\n"
        "    return {'h0': 1, 'graph': 'h0-graph'}, [('rank-nullity', 'pass')]\n"
        "def cmd_exchangeable(args, inputs):\n"
        "    return {'exchangeable': True}, [('h0', 'pass')]\n"
    )
    assert envelope_faults(ast.parse(source)) == []
