"""The package checks its resource caps in one place: ``caps.require``.  No
other module may name ``CapExceededError`` (``errors`` defines it and the
package root exports it), read a cap's limit (an attribute named after a
``Caps`` field) or read the caps themselves (``caps.current``): each of those
is a second place that compares a count against a cap or words its refusal."""

import ast
from pathlib import Path

import pytest

import latticecalc
from latticecalc import caps

SOURCES = sorted(Path(latticecalc.__file__).parent.glob("*.py"))
OTHERS = [p for p in SOURCES if p.name != "caps.py"]
EXPORTED = {"__init__.py": ["use of CapExceededError"]}  # the package root's import
FIELDS = set(caps.Caps._fields)


def cap_readers(tree: ast.AST) -> list[tuple[int, str]]:
    """Uses of the cap error, cap limits and ``caps.current`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
            if node.attr == "current" and isinstance(node.value, ast.Name) and (
                    node.value.id == "caps"):
                found.append((node.lineno, "read of caps.current"))
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if (node.module or "").endswith("caps") and "current" in names:
                found.append((node.lineno, "read of caps.current"))
        for name in names:
            if name == "CapExceededError":
                found.append((node.lineno, "use of CapExceededError"))
            elif name in FIELDS and not isinstance(node, (ast.Name, ast.ImportFrom)):
                found.append((node.lineno, f"read of cap {name}"))
    return found


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"caps.py", "localfn.py", "cohomology.py",
                                         "transitions.py"}


@pytest.mark.parametrize("path", OTHERS, ids=[p.name for p in OTHERS])
def test_no_cap_is_checked_outside_caps_require(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [what for _, what in cap_readers(tree)] == EXPORTED.get(path.name, [])


def test_the_error_is_raised_only_in_require():
    tree = ast.parse(Path(caps.__file__).read_text(encoding="utf-8"))
    raising = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Raise)
               and "CapExceededError" in ast.unparse(node)]
    assert raising == ["require"]


@pytest.mark.parametrize(
    "source,what",
    [
        ("raise CapExceededError('too many')", "use of CapExceededError"),
        ("raise errors.CapExceededError('too many')", "use of CapExceededError"),
        ("from .errors import CapExceededError", "use of CapExceededError"),
        ("ok = size <= limits.max_table", "read of cap max_table"),
        ("bound = getattr(x, 'y').max_bfs", "read of cap max_bfs"),
        ("limits = caps.current()", "read of caps.current"),
        ("from .caps import current", "read of caps.current"),
    ],
)
def test_the_guard_sees_each_kind_of_cap_check(source, what):
    assert cap_readers(ast.parse(source)) == [(1, what)]


def test_the_guard_lets_the_rule_through():
    source = (
        "from . import caps\n"
        "caps.require('max_table', size, '{} configurations exceed cap {}')\n"
        "max_states = max_states or cap\n"
    )
    assert cap_readers(ast.parse(source)) == []
