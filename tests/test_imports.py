"""Every name a module of the package imports is used in that module.

No linter is part of the toolchain, so this ``ast`` scan is the unused-import
check.  ``__init__.py`` is left out: its imports are the package's exports.
A name counts as used when the module reads it, also inside a string
annotation; ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

import latticecalc

SOURCES = [path for path in sorted(Path(latticecalc.__file__).parent.glob("*.py"))
           if path.name != "__init__.py"]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(tree: ast.AST) -> list[str]:
    """The names ``tree`` imports and never reads, sorted."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    trees = [tree] + [ast.parse(note.value, mode="eval") for note in _annotations(tree)
                      if isinstance(note, ast.Constant) and isinstance(note.value, str)]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source,unused",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.getcwd()\n", []),
        ("import os.path\n", ["os"]),
        ("from a import b as c\nb = 1\n", ["c"]),
        ("from a import b, c\nc()\n", ["b"]),
        ("from a import (\n    b,\n    c,\n)\nx = b.c\n", ["c"]),
        ("from __future__ import annotations\n", []),
        ("from a import T\ndef f(x: 'T') -> None:\n    pass\n", []),
        ("from a import T\ndef f() -> 'list[T]':\n    pass\n", []),
        ("from a import T\nx: T = 1\n", []),
        ("from a import T\ndef f():\n    return 'T'\n", ["T"]),
    ],
)
def test_the_scan_sees_unused_names_and_lets_used_ones_through(source, unused):
    assert unused_imports(ast.parse(source)) == unused
