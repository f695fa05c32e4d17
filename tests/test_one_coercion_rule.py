"""Local-function tables coerce their entries in one place:
``LocalFunction.__post_init__``.  Every builder (``from_function``,
``from_entries``, ``constant``, the subclass ``ExactSupportFunction``) hands
raw values to the constructor, so an entry is coerced once and a float or a
bool is refused with one message wherever it enters."""

import ast
from pathlib import Path

import pytest

from latticecalc import localfn


def coercions(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, enclosing ``Class.function``) of each use of ``ensure_fraction``
    in ``tree``, imports aside."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        elif isinstance(node, ast.Name) and node.id == "ensure_fraction" or (
                isinstance(node, ast.Attribute) and node.attr == "ensure_fraction"):
            found.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_entries_are_coerced_only_in_the_constructor():
    path = Path(localfn.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [scope for _, scope in coercions(tree)] == ["LocalFunction.__post_init__"]


@pytest.mark.parametrize(
    "source,scope",
    [
        ("class LocalFunction:\n    def from_function(cls):\n        ensure_fraction(1)",
         "LocalFunction.from_function"),
        ("def constant(v):\n    return rationals.ensure_fraction(v)", "constant"),
        ("table = tuple(map(ensure_fraction, values))", ""),
    ],
    ids=["call", "attribute", "reference"],
)
def test_the_scan_sees_each_use(source, scope):
    line = source.count("\n") + 1
    assert coercions(ast.parse(source)) == [(line, scope)]


def test_the_scan_skips_imports():
    assert coercions(ast.parse("from .rationals import ensure_fraction")) == []
