"""``path_graph``, ``cycle_graph`` and ``lattice_window`` are one builder:
sites a..b, each joined to the sites d = 1..min(k, b − a) above it, and a
cycle's a to b.  The site count is asked of ``max_bfs`` before any site is
listed, so no integer graph outgrows its cap and no loop runs over k."""

import time

import pytest

from latticecalc import errors
from latticecalc.errors import SchemaError
from latticecalc.rationals import require_int
from latticecalc.sitegraph import (
    CYCLE,
    LATTICE_Z,
    PATH,
    SiteGraph,
    cycle_graph,
    lattice_window,
    load_graph,
    path_graph,
)


# the three builders as they were before they shared one edge rule: one loop each


def reference_path(n):
    require_int(n, "path graph needs an integer n >= 1, got {!r}", 1)
    edges = set()
    for i in range(n - 1):
        edges |= {(i, i + 1), (i + 1, i)}
    return SiteGraph(kind=PATH, vertices=tuple(range(n)), edges=frozenset(edges))


def reference_cycle(n):
    require_int(n, "cycle graph needs an integer n >= 3, got {!r}", 3)
    edges = set()
    for i in range(n):
        j = (i + 1) % n
        edges |= {(i, j), (j, i)}
    return SiteGraph(kind=CYCLE, vertices=tuple(range(n)), edges=frozenset(edges))


def reference_lattice(k, a, b):
    require_int(k, "lattice range k must be an integer >= 1, got {!r}", 1)
    bad = "window [{!r}, {!r}] is not a nonempty integer range"
    require_int(b, bad, require_int(a, bad, None, fields=(a, b)), fields=(a, b))
    edges = set()
    for i in range(a, b + 1):
        for d in range(1, k + 1):
            if i + d <= b:
                edges |= {(i, i + d), (i + d, i)}
    return SiteGraph(kind=LATTICE_Z, vertices=tuple(range(a, b + 1)),
                     edges=frozenset(edges), k=k, window=(a, b))


@pytest.fixture(autouse=True)
def default_caps(monkeypatch):
    monkeypatch.delenv("LATTICECALC_CAPS", raising=False)


@pytest.mark.parametrize("n", range(1, 13))
def test_path_graphs_equal_the_reference(n):
    assert path_graph(n) == reference_path(n)


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_graphs_equal_the_reference(n):
    assert cycle_graph(n) == reference_cycle(n)


WINDOWS = [(a, a + sites - 1) for sites in range(1, 10) for a in (-4, 0, 3)]


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("a,b", WINDOWS)
def test_lattice_windows_equal_the_reference(k, a, b):
    """k > b − a included: the offsets stop at the window's length."""
    assert lattice_window(k, a, b) == reference_lattice(k, a, b)


@pytest.mark.parametrize("build,args", [
    (path_graph, (0,)), (path_graph, (True,)), (path_graph, ("3",)), (cycle_graph, (2,)),
    (cycle_graph, (None,)), (lattice_window, (0, 0, 3)), (lattice_window, (1, 3, 0)),
    (lattice_window, (1, 0.0, 3)), (lattice_window, (False, 0, 3)),
])
def test_argument_checks_and_messages_are_the_references(build, args):
    reference = {path_graph: reference_path, cycle_graph: reference_cycle,
                 lattice_window: reference_lattice}[build]
    with pytest.raises(SchemaError) as expected:
        reference(*args)
    with pytest.raises(SchemaError) as got:
        build(*args)
    assert str(got.value) == str(expected.value)


def test_a_range_past_the_window_builds_at_once():
    start = time.perf_counter()
    g = lattice_window(99999999999, 0, 3)
    doc = load_graph({"kind": "lattice_z", "k": 99999999999, "window": [0, 3]})
    assert time.perf_counter() - start < 2
    assert g == doc
    assert g.edges == lattice_window(3, 0, 3).edges and g.k == 99999999999


@pytest.mark.parametrize("build,message", [
    (lambda: path_graph(10 ** 12), "a graph of 1000000000000 sites exceeds cap 1000000"),
    (lambda: cycle_graph(10 ** 7), "a graph of 10000000 sites exceeds cap 1000000"),
    (lambda: lattice_window(1, 0, 99999999), "a graph of 100000000 sites exceeds cap 1000000"),
    (lambda: lattice_window(10 ** 11, -10 ** 11, 10 ** 11),
     "a graph of 200000000001 sites exceeds cap 1000000"),
    (lambda: load_graph({"kind": "path", "n": 10 ** 9}),
     "a graph of 1000000000 sites exceeds cap 1000000"),
    (lambda: load_graph({"kind": "lattice_z", "window": [0, 10 ** 9]}),
     "a graph of 1000000001 sites exceeds cap 1000000"),
], ids=["path", "cycle", "lattice", "lattice-long-range", "path-document",
        "lattice-document"])
def test_an_over_cap_graph_is_refused_before_a_site_is_listed(build, message):
    start = time.perf_counter()
    with pytest.raises(errors.CapExceededError, match=f"^{message}$"):
        build()
    assert time.perf_counter() - start < 2


def test_the_site_cap_is_max_bfs(monkeypatch):
    monkeypatch.setenv("LATTICECALC_CAPS", "max_bfs=5")
    assert len(path_graph(5).vertices) == len(lattice_window(2, -2, 2).vertices) == 5
    with pytest.raises(errors.CapExceededError, match="^a graph of 6 sites exceeds cap 5$"):
        cycle_graph(6)
    with pytest.raises(errors.CapExceededError, match="^a graph of 6 sites exceeds cap 5$"):
        lattice_window(1, -3, 2)


def test_arguments_are_checked_before_the_site_cap():
    with pytest.raises(SchemaError, match="lattice range k"):
        lattice_window(0, 0, 10 ** 12)
