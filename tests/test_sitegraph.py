from collections import deque
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecalc import errors
from latticecalc.sitegraph import (
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


def as_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.unordered_edges())
    return nxg


def test_path_and_cycle_shapes():
    p = path_graph(4)
    assert p.vertices == (0, 1, 2, 3)
    assert p.unordered_edges() == [(0, 1), (1, 2), (2, 3)]
    c = cycle_graph(5)
    assert len(c.unordered_edges()) == 5
    assert (0, 4) in c.unordered_edges()


def test_lattice_window_range_two():
    g = lattice_window(2, -2, 2)
    assert g.vertices == (-2, -1, 0, 1, 2)
    assert (0, 2) in g.unordered_edges()
    assert (-2, 0) in g.unordered_edges()
    assert (-2, 1) not in g.unordered_edges()
    assert g.is_window_of_infinite


def test_lattice_window_distance_respects_range():
    g = lattice_window(2, -4, 4)
    assert distance(g, -4, 4) == 4
    assert distance(g, 0, 3) == 2
    nxg = as_networkx(g)
    for x in g.vertices:
        lengths = nx.single_source_shortest_path_length(nxg, x)
        for y in g.vertices:
            assert distance(g, x, y) == lengths[y]


def test_distance_matches_networkx_on_cycle():
    g = cycle_graph(7)
    nxg = as_networkx(g)
    for x in g.vertices:
        lengths = nx.single_source_shortest_path_length(nxg, x)
        for y in g.vertices:
            assert distance(g, x, y) == lengths[y]


def test_ball_uses_strict_inequality():
    g = lattice_window(1, -5, 5)
    assert ball(g, 0, 0) == frozenset()
    assert ball(g, 0, 1) == frozenset({0})
    assert ball(g, 0, 2) == frozenset({-1, 0, 1})
    assert ball(g, 0, Fraction(3, 2)) == frozenset({-1, 0, 1})


def test_diameter_of_site_sets():
    g = lattice_window(1, -5, 5)
    assert diameter_of(g, ()) == 0
    assert diameter_of(g, (3,)) == 0
    assert diameter_of(g, (-2, 0, 1)) == 3
    g2 = lattice_window(2, -5, 5)
    assert diameter_of(g2, (-2, 0, 1)) == 2


def test_explicit_graph_lenient_closure_and_strict_mode():
    g = explicit_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert ("b", "a") in g.edges
    with pytest.raises(errors.AsymmetricEdgesError):
        explicit_graph(["a", "b"], [("a", "b")], symmetry="strict")


def test_graph_validation_errors():
    with pytest.raises(errors.SchemaError):
        explicit_graph(["a", "a"], [])
    with pytest.raises(errors.SchemaError):
        explicit_graph(["a", "b"], [("a", "a"), ("b", "a"), ("a", "b")])
    with pytest.raises(errors.SchemaError):
        explicit_graph(["a", "b", "c"], [("a", "b")])  # c unreachable
    with pytest.raises(errors.UnknownVertexError):
        explicit_graph(["a", "b"], [("a", "z")])
    with pytest.raises(errors.SchemaError):
        lattice_window(0, -1, 1)
    with pytest.raises(errors.SchemaError):
        lattice_window(1, 3, 2)
    with pytest.raises(errors.SchemaError):
        cycle_graph(2)


@pytest.mark.parametrize(
    "vertices,edges",
    [
        ([0, "a", "b"], [[0, "a"], ["a", "b"], [0, "b"]]),
        ([[1], [2]], [[[1], [2]]]),
        ([True, 2], [[True, 2]]),
        ([0.5, 1.5], [[0.5, 1.5]]),
        ([1, 2], [[[1], 2]]),
    ],
    ids=["int-and-str", "lists", "bool", "floats", "unhashable-edge"],
)
def test_explicit_graph_documents_need_int_or_str_vertices(vertices, edges):
    with pytest.raises(errors.SchemaError):
        load_graph({"kind": "explicit", "vertices": vertices, "edges": edges})


def test_edge_endpoints_must_have_the_vertex_type():
    with pytest.raises(errors.UnknownVertexError):
        explicit_graph([1, 2], [(True, 2)])
    with pytest.raises(errors.UnknownVertexError):
        explicit_graph([1, 2], [(1.0, 2)])


def test_parse_site_reads_tokens_by_vertex_type():
    ints, strs = path_graph(3), explicit_graph(["a", "1"], [("a", "1")])
    assert ints.parse_site("2") == 2 and ints.parse_site(-7) == -7
    assert strs.parse_site("a") == "a" and strs.parse_site("1") == "1"
    for graph, token in [(ints, "a"), (ints, True), (ints, 1.0), (ints, [1]),
                         (strs, 1), (strs, ["a"])]:
        with pytest.raises(errors.SchemaError):
            graph.parse_site(token)


def test_unknown_vertex_lookups_raise():
    g = path_graph(3)
    with pytest.raises(errors.UnknownVertexError):
        distance(g, 0, 9)
    with pytest.raises(errors.UnknownVertexError):
        g.require_vertex("x")


def test_document_roundtrip_all_kinds():
    for g in (
        path_graph(4),
        cycle_graph(5),
        lattice_window(2, -3, 3),
        explicit_graph(["a", "b"], [("a", "b")]),
    ):
        doc = graph_to_document(g)
        back = load_graph(doc)
        assert back.kind == g.kind
        assert back.vertices == g.vertices
        assert back.unordered_edges() == g.unordered_edges()


def test_load_graph_rejects_malformed_documents():
    with pytest.raises(errors.SchemaError):
        load_graph({"kind": "mystery"})
    with pytest.raises(errors.SchemaError):
        load_graph({"kind": "path"})
    with pytest.raises(errors.SchemaError):
        load_graph({"kind": "lattice_z", "k": 1, "window": [3]})


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "path", "n": "abc"},
        {"kind": "path", "n": 4.9},
        {"kind": "path", "n": True},
        {"kind": "cycle", "n": "5"},
        {"kind": "lattice_z", "k": 1.5, "window": [-4, 4]},
        {"kind": "lattice_z", "k": True, "window": [-4, 4]},
        {"kind": "lattice_z", "k": 1, "window": [-4.7, 4]},
        {"kind": "lattice_z", "k": 1, "window": [-4, "4"]},
        {"kind": "lattice_z", "k": 1, "window": [False, 4]},
        {"kind": "lattice_z", "k": 1, "window": [-4, True]},
    ],
    ids=["n-str", "n-float", "n-bool", "cycle-n-str", "k-float", "k-bool",
         "bound-float", "bound-str", "bound-bool", "upper-bound-bool"],
)
def test_integer_graph_fields_must_be_integers(doc):
    """A float is not truncated, a string not parsed, a boolean not 0 or 1."""
    with pytest.raises(errors.SchemaError):
        load_graph(doc)


def reference_shortest_path(graph, x, y):
    """The breadth-first search transitions used to keep for swap paths."""
    if x == y:
        return [x]
    parents = {}
    seen = {x}
    queue = deque([x])
    while queue:
        cur = queue.popleft()
        for nxt in sorted(b for a, b in graph.edges if a == cur):
            if nxt in seen:
                continue
            seen.add(nxt)
            parents[nxt] = cur
            if nxt == y:
                path = [y]
                while path[-1] != x:
                    path.append(parents[path[-1]])
                return path[::-1]
            queue.append(nxt)
    raise AssertionError("graphs are connected")


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus extra edges, on int or string vertices."""
    n = draw(st.integers(1, 12))
    names = draw(st.sampled_from([lambda i: i, lambda i: f"v{i}"]))
    vertices = draw(st.permutations([names(i) for i in range(n)]))
    edges = [(vertices[i], vertices[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    extra = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    edges += [(a, b) for a, b in draw(st.lists(extra, max_size=2 * n)) if a != b]
    return explicit_graph(vertices, edges)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_one_search_matches_the_old_shortest_path(g):
    nxg = as_networkx(g)
    for x in g.vertices:
        lengths = nx.single_source_shortest_path_length(nxg, x)
        for y in g.vertices:
            path = shortest_path(g, x, y)
            assert path == reference_shortest_path(g, x, y)
            assert distance(g, x, y) == lengths[y] == len(path) - 1
        for r in (0, 1, Fraction(3, 2), 2, 3):
            assert ball(g, x, r) == {y for y, d in lengths.items() if d < r}
