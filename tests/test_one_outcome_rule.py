"""A call ends in one place: ``cli.main``.  A handler returns its checks as
``(name, passed)`` pairs, and ``main`` alone raises ``VerificationError`` for
a failed one and hands the rest to ``_emit``, so no source spells a check's
``"fail"``.  Every input is decoded by one function, the only caller of
``json.loads`` (or ``json.load``) in the package: a second caller would be a
second place that decides which bytes are a document."""

import ast
from pathlib import Path

import pytest

import latticecalc
from latticecalc import cli

SOURCES = sorted(Path(latticecalc.__file__).parent.glob("*.py"))
CLI = Path(cli.__file__)


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def enclosing(tree: ast.AST, wanted) -> list[str]:
    """The innermost function around each node of ``tree`` that ``wanted``
    accepts, in source order; ``<module>`` outside every function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if wanted(child):
                found.append(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(tree, "<module>")
    return found


def spells_fail(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == "fail"


def raises_verification(node) -> bool:
    return isinstance(node, ast.Raise) and "VerificationError" in ast.unparse(node)


def calls_emit(node) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func) in ("_emit", "cli._emit")


def decodes_json(node) -> bool:
    """A call of ``json.loads`` or ``json.load``, or an import of either."""
    if isinstance(node, ast.Call):
        return ast.unparse(node.func) in ("json.loads", "json.load")
    return isinstance(node, ast.ImportFrom) and node.module == "json" and any(
        alias.name in ("loads", "load") for alias in node.names)


def test_the_package_has_sources():
    assert CLI in SOURCES and len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_source_spells_a_failed_check(path):
    assert enclosing(parse(path), spells_fail) == []


def test_only_main_raises_verification_error_in_the_command_line():
    assert enclosing(parse(CLI), raises_verification) == ["main"]


def test_only_main_emits_a_report():
    assert enclosing(parse(CLI), calls_emit) == ["main"]


def test_one_function_decodes_json():
    owners = [f"{path.stem}.{owner}" for path in SOURCES
              for owner in enclosing(parse(path), decodes_json)]
    assert owners == ["cli._decode"]


@pytest.mark.parametrize("source,rule,owners", [
    ("def f(ok):\n    return [('x', 'pass' if ok else 'fail')]", spells_fail, ["f"]),
    ("def f():\n    raise VerificationError('x')", raises_verification, ["f"]),
    ("def f():\n    def g():\n        raise errors.VerificationError('x')",
     raises_verification, ["g"]),
    ("def f(args):\n    return _emit(args, {}, {}, [])", calls_emit, ["f"]),
    ("doc = json.loads(text)", decodes_json, ["<module>"]),
    ("def f(h):\n    return json.load(h)", decodes_json, ["f"]),
    ("def f():\n    from json import loads", decodes_json, ["f"]),
], ids=["fail", "raise", "nested-raise", "emit", "loads", "load", "import"])
def test_the_guard_sees_each_kind_of_breach(source, rule, owners):
    assert enclosing(ast.parse(source), rule) == owners


def test_the_guard_lets_the_rule_through():
    source = (
        "def cmd_x(args, inputs):\n"
        "    return {}, [('round-trip', True)]\n"
        "def main(argv):\n"
        "    if not passed:\n"
        "        raise VerificationError(f'check {name} failed')\n"
        "    return _emit(args, inputs, outputs, checks)\n"
    )
    tree = ast.parse(source)
    assert enclosing(tree, spells_fail) == []
    assert enclosing(tree, raises_verification) == enclosing(tree, calls_emit) == ["main"]
    assert enclosing(tree, decodes_json) == []
