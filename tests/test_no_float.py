"""The package computes in exact rationals only: no source file may write a
float literal, call ``float`` or use true division ``/``.  Exact division is
written ``Fraction(p, q)``."""

import ast
from pathlib import Path

import pytest

import latticecalc

SOURCES = sorted(Path(latticecalc.__file__).parent.glob("*.py"))


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
            node.func.id == "float"
        ):
            found.append((node.lineno, "call of float"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
    return found


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"linalg.py", "uniform.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_floating_point_in_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert float_uses(tree) == []


@pytest.mark.parametrize(
    "source,what",
    [
        ("x = 0.5", "literal 0.5"),
        ("x = 1e3", "literal 1000.0"),
        ("x = 2j", "literal 2j"),
        ("x = float(y)", "call of float"),
        ("x = a / b", "true division"),
        ("x /= b", "true division"),
    ],
)
def test_the_guard_sees_each_kind_of_float(source, what):
    assert float_uses(ast.parse(source)) == [(1, what)]


def test_the_guard_lets_exact_arithmetic_through():
    source = "from fractions import Fraction\nx = Fraction(1, 3) + a // b - 2 ** 5 % 7\n"
    assert float_uses(ast.parse(source)) == []
