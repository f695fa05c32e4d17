"""The package reads integers from text in one place: ``rationals.parse_int``,
whose grammar is ASCII ``-?[0-9]+``.  No other source may call ``int``, hand
``int`` to another call (``type=int``, ``map(int, ...)``), use ``.isdigit``,
``.isdecimal`` or ``.isnumeric``, or write ``\\d`` in a string: each of those
reads a wider grammar, with signs, whitespace, underscores or digits outside
ASCII."""

import ast
from pathlib import Path

import pytest

import latticecalc

SOURCES = sorted(Path(latticecalc.__file__).parent.glob("*.py"))
DIGIT_TESTS = ("isdigit", "isdecimal", "isnumeric")


def int_readers(tree: ast.AST) -> list[tuple[int, str]]:
    """Integer readers of ``tree`` outside the body of a ``parse_int``."""
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "parse_int"
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "int":
                found.append((node.lineno, "call of int"))
            is_type_test = isinstance(node.func, ast.Name) and node.func.id in (
                "isinstance", "issubclass")
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if isinstance(arg, ast.Name) and arg.id == "int" and not is_type_test:
                    found.append((node.lineno, "int passed to a call"))
        elif isinstance(node, ast.Attribute) and node.attr in DIGIT_TESTS:
            found.append((node.lineno, f"use of .{node.attr}"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and (
            "\\d" in node.value
        ):
            found.append((node.lineno, "\\d in a string"))
    return found


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"rationals.py", "cli.py", "sitegraph.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_integer_reader_outside_parse_int(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert int_readers(tree) == []


def test_parse_int_is_defined_once_in_rationals():
    defining = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "parse_int"
    ]
    assert defining == ["rationals.py"]


@pytest.mark.parametrize(
    "source,what",
    [
        ("x = int(text)", "call of int"),
        ("p.add_argument('--n', type=int)", "int passed to a call"),
        ("xs = list(map(int, fields))", "int passed to a call"),
        ("ok = text.isdigit()", "use of .isdigit"),
        ("ok = text.isdecimal()", "use of .isdecimal"),
        ("ok = str.isnumeric", "use of .isnumeric"),
        ("pattern = r'^\\d+$'", "\\d in a string"),
    ],
)
def test_the_guard_sees_each_kind_of_reader(source, what):
    assert int_readers(ast.parse(source)) == [(1, what)]


def test_the_guard_lets_type_checks_and_parse_int_through():
    source = (
        "def parse_int(text):\n    return int(text)\n"
        "ok = isinstance(v, int) and type(v) is int\n"
        "pattern = '-?[0-9]+'\n"
    )
    assert int_readers(ast.parse(source)) == []
