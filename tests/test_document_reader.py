"""Every input document is read by one object rule, ``rationals.parse_object``,
and every state label by one label rule, ``StateSpace.index``.

One table lists each loader, with each graph and uniform-function kind as
a row of its own: a well-formed document, how the library reads it, and
the command line that reads it from a file.  Each row's document is then
broken: replaced by something that is not an object, stripped of each
required key, given one key its kind does not define, and given a label
that is not a string; a row with an embedded object (a `table`, the
`assignments`) also gets that object replaced.  Each broken document must
raise ``SchemaError`` in process and, through ``cli.main``, print one
``schema`` line on stderr and exit 1.  A source scan keeps the shape checks
the rule replaced from coming back.
"""

import ast
import copy
import json
from pathlib import Path
from typing import NamedTuple

import pytest

import latticecalc
from latticecalc import errors
from latticecalc.cli import main, read_argv
from latticecalc.interaction import StateSpace, builtin_interaction, load_interaction, state_space
from latticecalc.sitegraph import lattice_window, load_graph, path_graph
from latticecalc.transitions import transition_from_document
from latticecalc.uniform import (
    configuration,
    load_component_list,
    load_configuration,
    load_local_function,
    load_uniform,
)

from test_site_rule import _enclosing

PHI = builtin_interaction("exclusion")
S = PHI.states
LABELS = ["0", "1"]
PATH3 = path_graph(3)
PATH_DOC = {"kind": "path", "n": 3}
WINDOW_DOC = {"kind": "lattice_z", "k": 1, "window": [-3, 3]}
COMPONENT = {"support": [0], "table": {"1": "1"}}
EXPLICIT_FN = {"kind": "explicit", "base": "0", "radius": 0, "components": [COMPONENT]}
TRANSLATED_FN = {"kind": "translated", "base": "0", "radius": 0, "template": [COMPONENT]}
FILE = "<file>"  # where a row's command line names the document's file
EXTRACT = ["extract", "--interaction", "exclusion", "--function", FILE]
EXPAND = ["expand", "--function", FILE]
H0 = ["h0", "--interaction", "exclusion", "--graph", FILE]


def envelope(graph_doc):
    """The function file of a uniform function: the document with its
    states and graph; a list of documents gives a list of files."""
    def wrap(doc):
        if isinstance(doc, dict):
            return {"states": LABELS, "graph": graph_doc, **doc}
        return [wrap(item) for item in doc]
    return wrap


def in_component_list(doc):
    return {"states": LABELS, "graph": PATH_DOC, **EXPLICIT_FN, "components": [doc]}


def handler(argv):
    """Run the subcommand ``argv`` names in process: an error is raised,
    not reported."""
    def run(doc, path):
        args = read_argv([path if a == FILE else a for a in argv])
        return args.func(args, {})
    return run


class Row(NamedTuple):
    read: object  # (document, path of its file) -> the value read
    argv: list | None  # None: no command reads the document from a file
    wrap: object  # document -> the file's content; None: the document itself
    good: dict
    required: tuple
    unknown: tuple  # (a key the kind does not define, its value)
    labels: tuple = ()  # paths to the state labels of ``good``
    objects: tuple = ()  # paths to the objects embedded in ``good``


ROWS = {
    "interaction": Row(
        lambda d, p: load_interaction(d), ["consv", "--interaction", FILE], None,
        {"states": LABELS, "edges": [[["0", "1"], ["1", "0"]]], "base": "0",
         "symmetry": "lenient"},
        ("states", "edges"), ("states_", ["0"]), (("base",), ("states", 1), ("edges", 0, 1, 0))),
    "graph-lattice_z": Row(lambda d, p: load_graph(d), H0, None, WINDOW_DOC,
                           ("kind", "window"), ("n", 7)),
    "graph-path": Row(lambda d, p: load_graph(d), H0, None, PATH_DOC, ("kind", "n"), ("k", 1)),
    "graph-cycle": Row(lambda d, p: load_graph(d), H0, None, {"kind": "cycle", "n": 4},
                       ("kind", "n"), ("window", [0, 3])),
    "graph-explicit": Row(
        lambda d, p: load_graph(d), H0, None,
        {"kind": "explicit", "vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]],
         "symmetry": "lenient"},
        ("kind", "vertices", "edges"), ("n", 3)),
    "local-function": Row(
        lambda d, p: load_local_function(d, S), EXPAND,
        lambda d: {"states": LABELS, "base": "0", **d} if isinstance(d, dict) else d,
        {"support": [0, 1], "table": {"1,1": "1"}}, ("support", "table"), ("radius", 0),
        objects=(("table",),)),
    "component": Row(
        lambda d, p: load_component_list([d], S, 0), EXTRACT, in_component_list, COMPONENT,
        ("support", "table"), ("base", "0"), objects=(("table",),)),
    "uniform-explicit": Row(
        lambda d, p: load_uniform(d, S, PATH3), EXTRACT, envelope(PATH_DOC), EXPLICIT_FN,
        ("base",), ("template", [COMPONENT]), (("base",),)),
    "uniform-translated": Row(
        lambda d, p: load_uniform(d, S, lattice_window(1, -3, 3)), EXTRACT,
        envelope(WINDOW_DOC), TRANSLATED_FN, ("base",), ("components", [COMPONENT]),
        (("base",),)),
    "configuration": Row(
        lambda d, p: load_configuration(d, S, PATH3),
        ["neighbors", "--interaction", "exclusion", "--graph", "path:3", "--config", FILE], None,
        {"base": "0", "assignments": {"0": "1"}}, ("base",), ("assignment", {"0": "1"}),
        (("base",), ("assignments", "0")), (("assignments",),)),
    "transition": Row(
        lambda d, p: transition_from_document(d, PHI, configuration(PATH3, S, 0, {0: 1})),
        None, None, {"edge": [0, 1], "from": ["1", "0"], "to": ["0", "1"]},
        ("edge", "from", "to"), ("phi_edge", []), (("from", 0), ("to", 1))),
    "function-file": Row(
        handler(EXTRACT), EXTRACT, None, envelope(PATH_DOC)(EXPLICIT_FN), ("states", "base"),
        ("function", {}), (("base",), ("states", 0))),
    "local-function-file": Row(
        handler(EXPAND), EXPAND, None,
        {"states": LABELS, "base": "0", "support": [0, 1], "table": {"1,1": "1"}},
        ("states",), ("graph", PATH_DOC), (("base",), ("states", 1))),
}

GONE = object()


def edited(doc, path, value):
    """A deep copy of ``doc`` with the entry at ``path`` set to ``value``,
    or removed when ``value`` is ``GONE``."""
    doc = copy.deepcopy(doc)
    *head, last = path
    target = doc
    for step in head:
        target = target[step]
    if value is GONE:
        del target[last]
    else:
        target[last] = value
    return doc


def broken(row):
    """(case, document) for every way ``row``'s document is broken."""
    yield "not-an-object", [row.good]
    for key in row.required:
        yield f"no-{key}", edited(row.good, (key,), GONE)
    yield f"unknown-{row.unknown[0]}", {**row.good, row.unknown[0]: row.unknown[1]}
    for path in row.labels:
        yield "label-" + ".".join(map(str, path)), edited(row.good, path, 0)
    for path in row.objects:
        yield f"{path[-1]}-not-an-object", edited(row.good, path, ["1"])


CASES = [(name, case, doc) for name, row in ROWS.items() for case, doc in broken(row)]


def _file(tmp_path, row, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(row.wrap(doc) if row.wrap else doc))
    return str(path)


def _main(row, path, capsys):
    capsys.readouterr()
    code = main([path if a == FILE else a for a in row.argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_the_table_covers_every_loader_and_kind():
    kinds = {name.split("-")[1] for name in ROWS if name.startswith(("graph-", "uniform-"))}
    assert kinds == {"lattice_z", "path", "cycle", "explicit", "translated"}
    assert len(CASES) == 66


@pytest.mark.parametrize("name", ROWS)
def test_each_loader_reads_its_well_formed_document(name, tmp_path, capsys):
    row = ROWS[name]
    path = _file(tmp_path, row, row.good)
    row.read(row.good, path)
    if row.argv is not None:
        code, out, err = _main(row, path, capsys)
        assert (code, err) == (0, "") and out


@pytest.mark.parametrize("name,case,doc", CASES, ids=[f"{n}-{c}" for n, c, _ in CASES])
def test_each_malformed_document_is_one_schema_line(name, case, doc, tmp_path, capsys):
    row = ROWS[name]
    path = _file(tmp_path, row, doc)
    with pytest.raises(errors.SchemaError):
        row.read(doc, path)
    if row.argv is None:  # no command reads a transition from a file
        return
    code, out, err = _main(row, path, capsys)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["code"] == "schema"


def _line(message: str) -> str:
    return json.dumps({"error": {"code": "schema", "message": message}}, separators=(",", ":"))


PINNED = [
    # an explicit function listing its components under "template" read as zero
    (EXTRACT, {"states": LABELS, "graph": WINDOW_DOC, "kind": "explicit", "base": "0",
               "radius": 0, "template": [COMPONENT]},
     "explicit uniform-function document has an unknown key 'template'"),
    # a configuration spelling "assignment" read as all-base
    (ROWS["configuration"].argv, {"base": "0", "assignment": {"0": "1"}},
     "configuration document has an unknown key 'assignment'"),
    (ROWS["configuration"].argv, {"base": 0},
     "a state label is a string, got 0"),
    (H0, {"kind": "explicit", "vertices": [0, 1], "edges": [[0, [1]]]},
     "explicit graph edge [0, [1]] does not join two sites of the vertices' kind"),
    (H0, {"kind": "explicit", "vertices": [0, 1], "edges": [[0, 1.5]]},
     "explicit graph edge [0, 1.5] does not join two sites of the vertices' kind"),
    (H0, {"kind": "path"}, "path graph document needs 'n'"),
    (["consv", "--interaction", FILE], [],
     "interaction document must be an object"),
    # a present key is read by its own rule: null is not an absent base or graph
    (["consv", "--interaction", FILE], {**ROWS["interaction"].good, "base": None},
     "a state label is a string, got None"),
    (EXPAND, {**ROWS["local-function-file"].good, "base": None},
     "a state label is a string, got None"),
    (EXTRACT, {**ROWS["function-file"].good, "graph": None},
     "graph document must be an object"),
    # the embedded graph is read even when --graph is the one used
    (EXTRACT + ["--graph", "lattice:1:-4:4"],
     {**ROWS["function-file"].good, "graph": {"kind": "nope"}}, "unknown graph kind 'nope'"),
]


@pytest.mark.parametrize("argv,doc,message", PINNED, ids=[m for *_, m in PINNED])
def test_the_misread_documents_are_pinned_schema_lines(argv, doc, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([str(path) if a == FILE else a for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err.splitlines()) == (1, "", [_line(message)])


# ---------------------------------------------------------------------------
# the label rule


@pytest.mark.parametrize("label", [0, 1, None, True, 1.0, ["0"], {"0": 1}])
def test_a_label_that_is_not_a_string_is_a_schema_error(label):
    with pytest.raises(errors.SchemaError, match="^a state label is a string, got "):
        S.index(label)
    with pytest.raises(errors.SchemaError):
        state_space(LABELS, label if label is not None else 0)


def test_an_unknown_string_label_stays_an_unknown_state():
    assert S.index("1") == 1
    for call in (lambda: S.index("2"), lambda: state_space(LABELS, "2"),
                 lambda: load_configuration({"base": "2"}, S, PATH3)):
        with pytest.raises(errors.UnknownStateError, match="^unknown state label '2'$"):
            call()


@pytest.mark.parametrize("labels", [["0", "a,b"], [","], ["1,"]])
def test_a_label_with_a_comma_is_refused(labels):
    with pytest.raises(errors.SchemaError, match="^state labels must not contain ','$"):
        state_space(labels)
    with pytest.raises(errors.SchemaError):
        StateSpace(labels=tuple(labels))


# ---------------------------------------------------------------------------
# the checks the rule replaced stay gone

SOURCES = sorted(Path(latticecalc.__file__).parent.glob("*.py"))
# the reader, and the renderer of a report the program built, not of an input
EXEMPT = {"parse_object", "_table_lines"}
OBJECT_TYPES = {"dict", "Mapping"}


def _listed(node):
    return node.elts if isinstance(node, ast.Tuple) else [node]


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def shape_checks(tree: ast.AST) -> list[tuple[int, str]]:
    """Document-shape checks of ``tree`` outside ``EXEMPT``: an
    ``isinstance`` against ``dict`` or ``Mapping``, an ``except KeyError``,
    and a ``"key" not in ...`` test."""
    where = _enclosing(tree)
    found = []
    for node in ast.walk(tree):
        if where.get(id(node)) in EXEMPT:
            continue
        if (isinstance(node, ast.Call) and _name(node.func) == "isinstance"
                and len(node.args) == 2
                and any(_name(k) in OBJECT_TYPES for k in _listed(node.args[1]))):
            found.append((node.lineno, "isinstance against an object type"))
        elif (isinstance(node, ast.ExceptHandler) and node.type is not None
              and any(_name(k) == "KeyError" for k in _listed(node.type))):
            found.append((node.lineno, "except KeyError"))
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
              and isinstance(node.left.value, str)
              and any(isinstance(op, ast.NotIn) for op in node.ops)):
            found.append((node.lineno, "key test"))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_shape_check_outside_the_reader(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert shape_checks(tree) == []


def test_parse_object_is_defined_once_in_rationals():
    defining = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "parse_object"
    ]
    assert defining == ["rationals.py"]


@pytest.mark.parametrize(
    "source,what",
    [
        ("ok = isinstance(doc, dict)", "isinstance against an object type"),
        ("ok = isinstance(raw, Mapping)", "isinstance against an object type"),
        ("ok = isinstance(raw, abc.Mapping)", "isinstance against an object type"),
        ("ok = isinstance(doc, (list, dict))", "isinstance against an object type"),
        ("def load(doc):\n    return isinstance(doc, dict)\n",
         "isinstance against an object type"),
        ("try:\n    x = doc['a']\nexcept KeyError:\n    pass\n", "except KeyError"),
        ("try:\n    x = doc['a']\nexcept (TypeError, KeyError) as e:\n    raise\n",
         "except KeyError"),
        ("if 'base' not in doc:\n    raise E\n", "key test"),
        ("ok = not doc or 'kind' not in doc", "key test"),
    ],
)
def test_the_scan_sees_each_kind_of_check(source, what):
    assert [kind for _, kind in shape_checks(ast.parse(source))] == [what]


def test_the_scan_lets_the_reader_and_other_uses_through():
    source = (
        "def parse_object(value, what, required=()):\n"
        "    if not isinstance(value, dict):\n"
        "        raise E\n"
        "    for key in required:\n"
        "        if key not in value:\n"
        "            raise E\n"
        "def _table_lines(prefix, value, out):\n"
        "    return isinstance(value, dict)\n"
        "ok = isinstance(x, (list, str))\n"
        "try:\n    i = labels.index(x)\nexcept ValueError:\n    pass\n"
        "bad = ',' in label\n"
        "new = key not in seen\n"
        "kind = doc.get('kind', 'translated' if 'template' in doc else 'explicit')\n"
    )
    assert shape_checks(ast.parse(source)) == []
