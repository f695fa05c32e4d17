"""Every site handed to the library passes one rule, ``sitegraph.are_sites``:
a collection of sites is all ``int`` (never ``bool``) or all ``str``.

A site bound to a graph must also be a vertex of the graph's kind
(``SiteGraph.require_vertex``, an ``UnknownVertexError`` otherwise); a
support that breaks the rule is a ``SupportError``, and a document support
that breaks it is a ``SchemaError``.  One table of entry points gets each
value that is not a site of the graph: it must be refused, never returned.
Each entry point also gets a site it accepts, so a refusal is the value's
doing.  Every document the library writes loads back equal: interactions,
graphs of the four kinds, uniform functions of both kinds alone and in the
function file the command line writes, configurations, the transitions out
of them, and local functions.  A source scan keeps the site checks the rule
replaced from coming back.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticecalc
from latticecalc import errors
from latticecalc.cli import _function_doc, _function_file, main
from latticecalc.interaction import (
    builtin_interaction,
    interaction_to_document,
    load_interaction,
    state_space,
)
from latticecalc.localfn import ExactSupportFunction, LocalFunction, assemble, restrict
from latticecalc.sitegraph import (
    are_sites,
    ball,
    cycle_graph,
    diameter_of,
    distance,
    explicit_graph,
    graph_to_document,
    lattice_window,
    load_graph,
    path_graph,
    shortest_path,
)
from latticecalc.transitions import (
    neighbors,
    permutation_path,
    swap_path,
    transition_from_document,
)
from latticecalc.uniform import (
    Configuration,
    configuration,
    configuration_to_document,
    explicit_uniform,
    families_equal,
    load_configuration,
    load_local_function,
    load_uniform,
    local_function_to_document,
    sum_of_uniformly_local,
    translated_uniform,
    uniform_to_document,
)

from conftest import (
    exact_support_functions,
    local_functions,
    small_interactions,
    window_configurations,
)

PHI = builtin_interaction("exclusion")
S = PHI.states  # two states, base "0"


class World:
    """A three-vertex path graph with sites x < good < last, a configuration
    holding a particle at x, and local functions on x and on good."""

    def __init__(self, graph):
        self.graph = graph
        self.x, self.good, _ = graph.vertices
        self.eta = configuration(graph, S, 0, {self.x: 1})
        self.f = LocalFunction.from_entries(S, (self.x,), {(1,): 1})
        self.f2 = LocalFunction.from_entries(S, (self.x, self.good), {(1, 1): 1})
        self.comp_x = ExactSupportFunction(states=S, support=(self.x,), table=(0, 1))
        self.comp_good = ExactSupportFunction(states=S, support=(self.good,), table=(0, 1))


INT = World(path_graph(3))
STR = World(explicit_graph("abc", [("a", "b"), ("b", "c")]))

# entry point: (call with a site v in world w, the error a refused site raises)
V, SUP = errors.UnknownVertexError, errors.SupportError
ENTRIES = {
    "configuration": (lambda w, v: configuration(w.graph, S, 0, {w.x: 1, v: 1}), V),
    "Configuration": (lambda w, v: Configuration(graph=w.graph, states=S, base_index=0,
                                                 assignments=((w.x, 1), (v, 1))), V),
    "state_at": (lambda w, v: w.eta.state_at(v), V),
    "with_sites": (lambda w, v: w.eta.with_sites({v: 1}), V),
    "swap_path": (lambda w, v: swap_path(PHI, w.eta, w.x, v), V),
    "permutation_path": (lambda w, v: permutation_path(PHI, w.eta, {w.x: v, v: w.x}), V),
    "sum_of_uniformly_local": (
        lambda w, v: sum_of_uniformly_local({w.x: w.f, v: w.f}, 2, w.graph, 0), V),
    "shortest_path": (lambda w, v: shortest_path(w.graph, w.x, v), V),
    "distance": (lambda w, v: distance(w.graph, v, w.x), V),
    "ball": (lambda w, v: ball(w.graph, v, 1), V),
    "diameter_of": (lambda w, v: diameter_of(w.graph, [w.x, v]), V),
    "LocalFunction": (lambda w, v: LocalFunction(states=S, support=(w.x, v), table=(0,) * 4),
                      SUP),
    "ExactSupportFunction": (lambda w, v: ExactSupportFunction(
        states=S, support=(w.x, v), table=(0, 0, 0, 1)), SUP),
    "from_function": (lambda w, v: LocalFunction.from_function(S, (w.x, v), lambda a: 0), SUP),
    "from_entries": (lambda w, v: LocalFunction.from_entries(S, (w.x, v), {}), SUP),
    "zero": (lambda w, v: LocalFunction.zero(S, (w.x, v)), SUP),
    "restrict": (lambda w, v: restrict(w.f2, (v,), 0), SUP),
    "assemble-support": (lambda w, v: assemble({}, (w.x, v), S), SUP),
    "assemble-key": (lambda w, v: assemble({(v,): w.comp_good}, (w.x, w.good)), SUP),
    "explicit_uniform-key": (
        lambda w, v: explicit_uniform(S, w.graph, 0, 2, {(w.x,): w.comp_x, (v,): w.comp_good}),
        SUP),
}

WINDOW = lattice_window(1, -4, 4)
TEMPLATE = ExactSupportFunction(states=S, support=(0, 1), table=(0, 0, 0, 1))


def translated_key(v):
    return translated_uniform(S, WINDOW, 0, 1, {(0, v): TEMPLATE})


NOT_INT_SITES = [True, 1.0, 0.5, None, "b"]
NOT_STR_SITES = [1, True, None]


@pytest.mark.parametrize("world", [INT, STR], ids=["int", "str"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_point_accepts_a_site_of_the_graph(entry, world):
    ENTRIES[entry][0](world, world.good)


@pytest.mark.parametrize("value", NOT_INT_SITES, ids=["bool", "float", "half", "none", "str"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_point_refuses_a_non_site_on_an_integer_graph(entry, value):
    call, error = ENTRIES[entry]
    with pytest.raises(error):
        call(INT, value)


@pytest.mark.parametrize("value", NOT_STR_SITES, ids=["int", "bool", "none"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_point_refuses_a_non_site_on_a_string_graph(entry, value):
    call, error = ENTRIES[entry]
    with pytest.raises(error):
        call(STR, value)


def test_a_translated_template_accepts_integer_sites_only():
    assert translated_key(1).components[0][0] == (0, 1)
    for value in NOT_INT_SITES:
        with pytest.raises(errors.SupportError):
            translated_key(value)


def test_a_uniform_function_built_directly_refuses_non_site_keys():
    f = explicit_uniform(S, INT.graph, 0, 2, {(0,): INT.comp_x, (1,): INT.comp_good})
    comp_a = ExactSupportFunction(states=S, support=("a",), table=(0, 1))
    for components in [(((True,), INT.comp_good),), (((0,), INT.comp_x), (("a",), comp_a))]:
        with pytest.raises(errors.SupportError):
            f.replace(components=components)


def test_true_is_not_site_one():
    with pytest.raises(errors.UnknownVertexError, match="^not a vertex: True$"):
        configuration(path_graph(3), S, 0, {True: 1})
    with pytest.raises(errors.UnknownVertexError, match="^not a vertex: 1.0$"):
        path_graph(3).require_vertex(1.0)


def test_require_vertex_checks_many_sites_and_names_the_first_that_fails():
    g = path_graph(3)
    g.require_vertex()
    g.require_vertex(2, 0, 1)
    for sites, named in [((0, "a", True), "'a'"), ((0, 1.0), "1.0"), ((5, 0), "5")]:
        with pytest.raises(errors.UnknownVertexError, match=f"^not a vertex: {named}$"):
            g.require_vertex(*sites)


def test_the_empty_support_stays_legal():
    assert LocalFunction.zero(S, ()).support == ()
    assert restrict(INT.f2, (), 0).support == ()
    assert assemble({}, (), S).support == ()


def test_a_mixed_support_names_the_rule_not_python_ordering():
    with pytest.raises(errors.SupportError,
                       match=r"^support \[0, 'a'\] must be all integer or all string sites$"):
        LocalFunction.zero(S, (0, "a"))


@pytest.mark.parametrize("radius", [1.5, True, 0.0])
def test_ball_refuses_a_radius_that_is_not_exact(radius):
    with pytest.raises(errors.SchemaError):
        ball(path_graph(3), 0, radius)


def test_ball_takes_int_and_fraction_radii():
    g = path_graph(3)
    assert ball(g, 0, 1) == {0}
    assert ball(g, 0, Fraction(3, 2)) == {0, 1}
    with pytest.raises(errors.SchemaError, match="^radius must be nonnegative$"):
        ball(g, 0, -1)


@pytest.mark.parametrize("vertices", [[0, "a"], [True, False], [0.0, 1.0], [None], [[0]]])
def test_graph_vertices_follow_the_rule(vertices):
    with pytest.raises(errors.SchemaError, match="^vertices must be all integers or all strings$"):
        explicit_graph(vertices, [])


@pytest.mark.parametrize("end", [True, 1.0, 2, "a"])
def test_an_edge_end_must_be_a_vertex_of_the_graph_kind(end):
    with pytest.raises(errors.UnknownVertexError, match=f"^not a vertex: {end!r}$"):
        explicit_graph([0, 1], [(0, end)])


@pytest.mark.parametrize("sites,expected", [
    ((), True), ((0, -3), True), (("a", ""), True), ((True,), False), ((0, "a"), False),
    ((1.0,), False), ((None,), False), (([0],), False), ((Fraction(1),), False),
])
def test_are_sites(sites, expected):
    assert are_sites(sites) is expected


# ---------------------------------------------------------------------------
# what the library writes, it loads

STR_PATH = explicit_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
GRAPHS = [path_graph(4), cycle_graph(5), lattice_window(1, -3, 3), lattice_window(2, 0, 4),
          STR_PATH]
ALIASES = [True, False, 1.0, 0.0, 0.5, None, "a", 2]


def _offered(draw, sites):
    """Sites as a caller might pass them: vertices, now and then swapped
    for a value equal to one, or for no site of the graph at all."""
    return [draw(st.sampled_from([s, s, *ALIASES])) for s in sites]


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_every_configuration_accepted_loads_back_equal(data):
    graph = data.draw(st.sampled_from(GRAPHS))
    eta = data.draw(window_configurations(graph, S, 0))
    sites = _offered(data.draw, eta.support())
    try:
        offered = configuration(graph, S, 0, dict(zip(sites, [1] * len(sites))))
    except errors.LatticeCalcError:
        offered = eta
    doc = json.loads(json.dumps(configuration_to_document(offered)))
    assert load_configuration(doc, S, graph) == offered
    for tr in neighbors(PHI, offered):
        doc = json.loads(json.dumps(tr.to_document()))
        assert transition_from_document(doc, PHI, offered) == tr


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_every_uniform_function_accepted_loads_back_equal(tmp_path_factory, data):
    graph = data.draw(st.sampled_from(GRAPHS))
    translated = graph.kind == "lattice_z" and data.draw(st.booleans())
    sites = range(0, 3) if translated else graph.vertices
    comps = data.draw(st.lists(exact_support_functions(S, 0, sites=sites), max_size=3))
    if translated:
        comps = [c.replace(support=tuple(s - c.support[0] for s in c.support)) for c in comps]
    family = {}
    for comp in comps:
        family[tuple(_offered(data.draw, comp.support))] = comp
    build = translated_uniform if translated else explicit_uniform
    try:
        f = build(S, graph, 0, 4, family)
    except errors.LatticeCalcError:
        return
    doc = json.loads(json.dumps(uniform_to_document(f)))
    back = load_uniform(doc, S, graph)
    assert families_equal(back, f) and back == f
    path = tmp_path_factory.getbasetemp() / "function.json"
    path.write_text(json.dumps(_function_doc(f)))
    assert _function_file(str(path), {}) == (f, S, graph)


@st.composite
def explicit_graphs(draw):
    """A connected explicit graph on up to five int or str vertices: a
    random spanning tree plus a few more edges."""
    names = draw(st.sampled_from([[-2, 0, 1, 5, 9], ["a", "b", "-1", "0", "x y"]]))
    vertices = draw(st.permutations(names))[:draw(st.integers(1, 5))]
    edges = [(vertices[draw(st.integers(0, i - 1))], vertices[i])
             for i in range(1, len(vertices))]
    edges += draw(st.lists(st.tuples(*[st.sampled_from(vertices)] * 2)
                           .filter(lambda e: e[0] != e[1]), max_size=3))
    return explicit_graph(vertices, edges)


ALL_GRAPHS = st.one_of(
    st.integers(1, 6).map(path_graph),
    st.integers(3, 7).map(cycle_graph),
    st.builds(lattice_window, st.integers(1, 3), st.integers(-3, 0), st.integers(0, 3)),
    explicit_graphs(),
)


@settings(deadline=None, max_examples=120)
@given(ALL_GRAPHS, small_interactions())
def test_every_graph_and_interaction_loads_back_equal(graph, phi):
    assert load_graph(json.loads(json.dumps(graph_to_document(graph)))) == graph
    assert load_interaction(json.loads(json.dumps(interaction_to_document(phi)))) == phi


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_every_local_function_loads_back_equal(data):
    states = data.draw(st.sampled_from([S, state_space(["0", "ab", "-1/2"], "0")]))
    sites = data.draw(st.sampled_from([range(-3, 4), "abcd"]))
    f = data.draw(local_functions(states, sites=sites))
    doc = json.loads(json.dumps(local_function_to_document(f)))
    assert load_local_function(doc, states) == f


# ---------------------------------------------------------------------------
# a document support that is not sites is one schema line

BAD_SUPPORTS = [[None], [0.5], [1.0], [True], [[0]], [0, "a"]]
GRAPH_DOC = graph_to_document(lattice_window(1, -4, 4))


def _uniform_doc(support):
    return {"states": ["0", "1"], "base": "0", "graph": GRAPH_DOC, "kind": "translated",
            "radius": 1, "template": [{"support": support, "table": {}}]}


# each command's flags after --function; diff's configurations are written as "eta"
FLAGS = {"rebase": ["--base", "1"], "diff": ["--from", "eta", "--to", "eta"],
         "invariant": ["--interaction", "exclusion"], "extract": ["--interaction", "exclusion"]}


def _run(command, support, tmp_path, capsys):
    local = {"states": ["0", "1"], "base": "0", "support": support, "table": {}}
    (tmp_path / "fn.json").write_text(json.dumps(
        local if command == "expand" else _uniform_doc(support)))
    (tmp_path / "eta.json").write_text(json.dumps({"base": "0"}))
    flags = [str(tmp_path / "eta.json") if f == "eta" else f for f in FLAGS.get(command, [])]
    code = main([command, "--function", str(tmp_path / "fn.json"), *flags])
    return code, capsys.readouterr()


@pytest.mark.parametrize("command", ["expand", *FLAGS])
def test_the_same_documents_with_a_support_of_sites_run(command, tmp_path, capsys):
    code, captured = _run(command, [0, 1], tmp_path, capsys)
    assert (code, captured.err) == (0, "")


@pytest.mark.parametrize("support", BAD_SUPPORTS, ids=json.dumps)
@pytest.mark.parametrize("command", ["expand", *FLAGS])
def test_a_document_support_that_is_not_sites_is_one_schema_line(
        command, support, tmp_path, capsys):
    code, captured = _run(command, support, tmp_path, capsys)
    message = f"support {support!r} must list all integer or all string sites"
    assert (code, captured.out) == (1, "")
    assert captured.err.splitlines() == [
        json.dumps({"error": {"code": "schema", "message": message}}, separators=(",", ":"))]


# ---------------------------------------------------------------------------
# the checks the rule replaced stay gone

SOURCES = sorted(Path(latticecalc.__file__).parent.glob("*.py"))
# the integer and list rules test a value's type too
TYPE_READERS = {"are_sites", "require_int", "parse_list"}


def _enclosing(tree: ast.AST) -> dict[int, str]:
    """id(node) -> name of the innermost function around it."""
    out = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                out[id(node)] = fn.name
    # ast.walk is breadth-first, so inner functions overwrote outer ones
    return out


def site_checks(tree: ast.AST) -> list[tuple[int, str]]:
    """Site checks of ``tree`` outside the rule: an ``except TypeError``
    around a ``sorted(`` call, a ``type(...)`` that is not read for its
    name or called, outside the functions allowed to read types, and a read
    of ``_vertex_set`` outside ``require_vertex``."""
    where = _enclosing(tree)
    used = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("__name__", "__qualname__")}
    used |= {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
                isinstance(h.type, ast.Name) and h.type.id == "TypeError"
                or isinstance(h.type, ast.Tuple)
                and any(isinstance(e, ast.Name) and e.id == "TypeError" for e in h.type.elts)
                for h in node.handlers) and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "sorted" for stmt in node.body for n in ast.walk(stmt)):
            found.append((node.lineno, "TypeError caught around sorted"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "type" and len(node.args) == 1
                and id(node) not in used and where.get(id(node)) not in TYPE_READERS):
            found.append((node.lineno, "type test"))
        if (isinstance(node, ast.Attribute) and node.attr == "_vertex_set"
                and where.get(id(node)) != "require_vertex"):
            found.append((node.lineno, "_vertex_set read"))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_site_check_outside_the_rule(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert site_checks(tree) == []


def test_are_sites_is_defined_once_in_sitegraph():
    defining = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "are_sites"
    ]
    assert defining == ["sitegraph.py"]


@pytest.mark.parametrize(
    "source,what",
    [
        ("try:\n    s = sorted(sites)\nexcept TypeError:\n    pass\n",
         "TypeError caught around sorted"),
        ("try:\n    s = tuple(sorted(set(x)))\nexcept (KeyError, TypeError) as e:\n    raise\n",
         "TypeError caught around sorted"),
        ("ok = type(x) is str", "type test"),
        ("kind = type(g.vertices[0])", "type test"),
        ("ok = type(x) in (int, str)", "type test"),
        ("def require_vertex(self, x):\n    return type(x) is int\n", "type test"),
        ("def other(g, x):\n    return x in g._vertex_set\n", "_vertex_set read"),
        ("ok = x in g._vertex_set", "_vertex_set read"),
    ],
)
def test_the_scan_sees_each_kind_of_check(source, what):
    assert [kind for _, kind in site_checks(ast.parse(source))] == [what]


def test_the_scan_lets_the_rule_and_other_uses_through():
    source = (
        "def are_sites(sites):\n"
        "    kinds = {type(x) for x in sites}\n"
        "    return kinds <= {int} or kinds <= {str}\n"
        "def require_vertex(self, x):\n"
        "    return x in self._vertex_set\n"
        "name = type(v).__name__\n"
        "copy = type(self)(**fields)\n"
        "try:\n    order = sorted(rows)\nexcept KeyError:\n    pass\n"
        "try:\n    value = int(text)\nexcept TypeError:\n    pass\n"
    )
    assert site_checks(ast.parse(source)) == []
