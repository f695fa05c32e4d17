"""Transition enumeration, reachable components, swap and permutation paths."""

import ast
import itertools
import math
import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecalc import errors, transitions, uniform
from latticecalc.interaction import (
    builtin_interaction,
    consv_basis,
    make_interaction,
    state_space,
)
from latticecalc.sitegraph import (cycle_graph, explicit_graph, lattice_window, path_graph,
                                  shortest_path)
from latticecalc.transitions import (
    ConfigCode,
    Transition,
    component_bfs,
    is_invariant,
    neighbors,
    permutation_path,
    swap_path,
    transition_document,
    transition_from_document,
)
from latticecalc.uniform import configuration, xi_X

from conftest import random_configuration, small_interactions, window_configurations

EXCLUSION = builtin_interaction("exclusion")
MS2 = builtin_interaction("multispecies:2")
AC = builtin_interaction("two-species-ac")
G13 = lattice_window(1, -6, 6)


def full_transition_graph(phi, graph):
    """Oracle: apply the interaction definition to every configuration."""
    n = phi.states.n
    verts = list(graph.vertices)
    g = nx.Graph()
    for config in itertools.product(range(n), repeat=len(verts)):
        g.add_node(config)
        for x, y in graph.unordered_edges():
            ix, iy = verts.index(x), verts.index(y)
            for (a, b), (c, d) in phi.edges:
                if config[ix] == a and config[iy] == b:
                    after = list(config)
                    after[ix], after[iy] = c, d
                    if tuple(after) != config:
                        g.add_edge(config, tuple(after))
    return g


def test_lone_particle_has_two_moves():
    eta = configuration(G13, EXCLUSION.states, 0, {0: 1})
    docs = [t.to_document() for t in neighbors(EXCLUSION, eta)]
    assert docs == [
        {"edge": [-1, 0], "from": ["0", "1"], "to": ["1", "0"]},
        {"edge": [0, 1], "from": ["1", "0"], "to": ["0", "1"]},
    ]


def test_pair_creation_from_vacuum():
    g = lattice_window(1, 0, 1)
    eta = configuration(g, AC.states, 1, {})
    docs = [t.to_document() for t in neighbors(AC, eta)]
    assert docs == [
        {"edge": [0, 1], "from": ["0", "0"], "to": ["-1", "1"]},
        {"edge": [0, 1], "from": ["0", "0"], "to": ["1", "-1"]},
    ]


def test_swap_moves_are_not_double_counted():
    g = lattice_window(1, 0, 1)
    eta = configuration(g, MS2.states, 0, {0: 1, 1: 2})
    found = neighbors(MS2, eta)
    # both orientations of the edge produce the same swapped configuration
    assert len(found) == 1
    assert found[0].after == eta.with_sites({0: 2, 1: 1})


HOP = ((1, 0), (0, 1))  # exclusion: the particle at the edge's first site moves


def test_transition_validation_rejects_mismatched_states():
    eta = configuration(G13, EXCLUSION.states, 0, {0: 1})
    good = neighbors(EXCLUSION, eta)[0]
    with pytest.raises(errors.MismatchError, match="^before-configuration disagrees"):
        Transition(EXCLUSION, good.after, good.edge, good.phi_edge)


@pytest.mark.parametrize(
    "before",
    [
        configuration(G13, MS2.states, 0, {0: 1}),
        configuration(G13, state_space(["1", "0"]), 0, {0: 1}),
    ],
    ids=["more-states", "relabelled"],
)
def test_transition_validation_rejects_a_source_of_another_state_space(before):
    with pytest.raises(errors.MismatchError,
                       match="^configuration and interaction disagree on the state space$"):
        Transition(EXCLUSION, before, (0, 1), HOP)


def test_transition_validation_rejects_a_before_state_off_the_edge():
    before = configuration(G13, EXCLUSION.states, 0, {0: 1, 1: 1})
    with pytest.raises(errors.MismatchError, match="before-configuration"):
        Transition(EXCLUSION, before, (0, 1), HOP)


@pytest.mark.parametrize("edge", [(0, 5), (5, 0), (0, 0), (0, 1, 2), ("0", "1")])
def test_transition_validation_rejects_an_edge_the_graph_lacks(edge):
    before = configuration(path_graph(6), EXCLUSION.states, 0, {0: 1})
    with pytest.raises(errors.UnknownVertexError, match=r"is not a graph edge$"):
        Transition(EXCLUSION, before, edge, HOP)


@pytest.mark.parametrize(
    "phi,base,phi_edge",
    [
        (EXCLUSION, 0, ((1, 0), (1, 1))),  # creation
        (EXCLUSION, 0, ((1, 0), (0, 0))),  # annihilation
        (EXCLUSION, 0, ((1, 0), (1, 0))),  # an identity edge exclusion lacks
        (MS2, 0, ((1, 0), (2, 0))),  # a change of species
        (AC, 1, ((0, 1), (2, 1))),  # a change of charge
    ],
)
def test_transition_validation_rejects_a_move_the_interaction_lacks(phi, base, phi_edge):
    before = configuration(path_graph(6), phi.states, base, {0: phi_edge[0][0]})
    assert phi_edge not in phi.edges
    with pytest.raises(errors.MismatchError,
                       match="^the transition's move is not an interaction edge$"):
        Transition(phi, before, (0, 1), phi_edge)


@pytest.mark.parametrize(
    "before,after",
    [
        ({0: 1}, {1: 1}),
        ({0: 1, -3: 1}, {-3: 1, 1: 1}),
        ({0: 1, 5: 1, 6: 1}, {1: 1, 5: 1, 6: 1}),
    ],
)
def test_the_target_changes_only_the_fired_edge(before, after):
    before = configuration(G13, EXCLUSION.states, 0, before)
    tr = Transition(EXCLUSION, before, (0, 1), HOP)
    assert tr.after == configuration(G13, EXCLUSION.states, 0, after)
    assert tr.after is tr.after
    changed = set(tr.before.assignments) ^ set(tr.after.assignments)
    assert {site for site, _ in changed} == {0, 1}


def test_a_transition_has_no_stored_target():
    before = configuration(G13, EXCLUSION.states, 0, {0: 1})
    assert Transition._fields == ("phi", "before", "edge", "phi_edge")
    with pytest.raises(TypeError):
        Transition(EXCLUSION, before, (0, 1), HOP, after=before)


def test_component_size_is_binomial_for_exclusion():
    g = lattice_window(1, -2, 2)
    for count in range(0, 4):
        eta = configuration(g, EXCLUSION.states, 0, {x: 1 for x in range(count)})
        res = component_bfs(EXCLUSION, eta)
        assert not res.truncated
        assert len(res.configurations) == math.comb(5, count)


def test_component_matches_networkx_for_annihilation():
    g = path_graph(3)
    oracle = full_transition_graph(AC, g)
    eta = configuration(g, AC.states, 1, {0: 0})
    res = component_bfs(AC, eta)
    key = tuple(eta.state_at(x) for x in g.vertices)
    want = nx.node_connected_component(oracle, key)
    mine = {
        tuple(c.state_at(x) for x in g.vertices) for c in res.configurations
    }
    assert mine == want


def test_component_truncation_reports_instead_of_raising():
    g = lattice_window(1, -3, 3)
    eta = configuration(g, EXCLUSION.states, 0, {0: 1, 1: 1})
    res = component_bfs(EXCLUSION, eta, max_states=4)
    assert res.truncated
    assert len(res.configurations) == 4


def test_discovery_transitions_replay():
    g = lattice_window(1, -2, 2)
    eta = configuration(g, EXCLUSION.states, 0, {0: 1, 1: 1})
    res = component_bfs(EXCLUSION, eta)
    for tr in res.discovery:
        assert transition_from_document(tr.to_document(), EXCLUSION, tr.before) == tr


def test_transition_document_mismatch_raises():
    eta = configuration(G13, EXCLUSION.states, 0, {0: 1})
    doc = {"edge": [3, 4], "from": ["1", "0"], "to": ["0", "1"]}
    with pytest.raises(errors.MismatchError):
        transition_from_document(doc, EXCLUSION, eta)


def test_transition_document_must_be_an_interaction_edge():
    eta = configuration(G13, EXCLUSION.states, 0, {0: 1})
    creation = {"edge": [0, 1], "from": ["1", "0"], "to": ["1", "1"]}
    with pytest.raises(errors.MismatchError):
        transition_from_document(creation, EXCLUSION, eta)


def test_transition_document_must_fire_at_a_graph_edge():
    g = path_graph(5)
    eta = configuration(g, EXCLUSION.states, 0, {0: 1})
    jump = {"edge": [0, 4], "from": ["1", "0"], "to": ["0", "1"]}
    with pytest.raises(errors.UnknownVertexError):
        transition_from_document(jump, EXCLUSION, eta)
    good = transition_from_document({**jump, "edge": [0, 1]}, EXCLUSION, eta)
    assert good.after == eta.with_sites({0: 0, 1: 1})


def test_transition_document_sites_must_name_sites_of_the_graph():
    eta = configuration(G13, EXCLUSION.states, 0, {0: 1})
    for edge in (["a", 1], [True, 1], [[0], 1]):
        doc = {"edge": edge, "from": ["1", "0"], "to": ["0", "1"]}
        with pytest.raises(errors.SchemaError):
            transition_from_document(doc, EXCLUSION, eta)
    good = {"edge": ["0", "1"], "from": ["1", "0"], "to": ["0", "1"]}
    assert transition_from_document(good, EXCLUSION, eta).edge == (0, 1)


@pytest.mark.parametrize("bad", [0, -5])
def test_component_rejects_max_states_below_one(bad):
    eta = configuration(G13, EXCLUSION.states, 0, {0: 1})
    with pytest.raises(errors.SchemaError):
        component_bfs(EXCLUSION, eta, max_states=bad)


def test_an_explicit_max_states_is_held_to_the_bfs_cap(monkeypatch):
    eta = configuration(lattice_window(1, -3, 3), EXCLUSION.states, 0, {0: 1, 1: 1})
    monkeypatch.setenv("LATTICECALC_CAPS", "max_bfs=5")
    assert len(component_bfs(EXCLUSION, eta).configurations) == 5  # the cap is the default
    assert len(component_bfs(EXCLUSION, eta, max_states=5).configurations) == 5
    with pytest.raises(errors.CapExceededError, match="^a search of 6 states exceeds cap 5$"):
        component_bfs(EXCLUSION, eta, max_states=6)
    monkeypatch.setenv("LATTICECALC_CAPS", "max_bfs=0")
    with pytest.raises(errors.CapExceededError, match="^a search of 1 states exceeds cap 0$"):
        component_bfs(EXCLUSION, eta)


def test_component_rejects_a_foreign_state_space():
    eta = configuration(G13, MS2.states, 0, {0: 1})
    with pytest.raises(errors.MismatchError):
        component_bfs(EXCLUSION, eta)


@settings(deadline=None, max_examples=50)
@given(
    window_configurations(G13, EXCLUSION.states, 0),
    st.sampled_from(list(G13.vertices)),
    st.sampled_from(list(G13.vertices)),
)
def test_swap_path_realizes_the_exchange_exclusion(eta, x, y):
    if x == y:
        return
    path = swap_path(EXCLUSION, eta, x, y)
    cur = eta
    for tr in path:
        assert tr.before == cur
        cur = tr.after
    assert cur == eta.with_sites({x: eta.state_at(y), y: eta.state_at(x)})


@settings(deadline=None, max_examples=50)
@given(
    window_configurations(G13, AC.states, 1),
    st.sampled_from(list(G13.vertices)),
    st.sampled_from(list(G13.vertices)),
)
def test_swap_path_realizes_the_exchange_annihilation(eta, x, y):
    if x == y:
        return
    path = swap_path(AC, eta, x, y)
    cur = eta
    for tr in path:
        cur = tr.after
    assert cur == eta.with_sites({x: eta.state_at(y), y: eta.state_at(x)})


def test_swap_path_rejects_unswappable_states():
    q = builtin_interaction("quastel2")
    eta = configuration(G13, q.states, 0, {0: 1, 1: 2})
    with pytest.raises(errors.NotExchangeableError):
        swap_path(q, eta, 0, 1)
    # swapping with a vacancy is still available in this variant
    path = swap_path(q, eta, 1, 3)
    assert path[-1].after == eta.with_sites({1: 0, 3: 2})


@settings(deadline=None, max_examples=60)
@given(
    window_configurations(G13, MS2.states, 0),
    st.permutations(list(range(-2, 3))),
)
def test_permutation_path_realizes_eta_sigma(eta, image):
    sigma = dict(zip(range(-2, 3), image))
    path = permutation_path(MS2, eta, sigma)
    cur = eta
    for tr in path:
        assert tr.before == cur
        cur = tr.after
    want = eta.with_sites({x: eta.state_at(sigma[x]) for x in sigma})
    assert cur == want


def test_permutation_must_be_a_bijection_on_its_domain():
    eta = configuration(G13, MS2.states, 0, {})
    with pytest.raises(errors.SchemaError):
        permutation_path(MS2, eta, {0: 1, 1: 1})
    with pytest.raises(errors.SchemaError):
        permutation_path(MS2, eta, {0: 1})


def test_is_invariant_accepts_conserved_sum_and_finds_witness():
    (xi,) = consv_basis(EXCLUSION, 0)
    f = xi_X(xi, G13, 0)
    probes = [
        configuration(G13, EXCLUSION.states, 0, {}),
        configuration(G13, EXCLUSION.states, 0, {0: 1, 1: 1}),
        configuration(G13, EXCLUSION.states, 0, {-3: 1, 2: 1, 3: 1}),
    ]
    check = is_invariant(f, EXCLUSION, state_probe=probes)
    assert check.invariant
    assert check.witness is None
    assert check.coverage == "probe-set-only"
    assert check.transitions_checked > 0

    from latticecalc.localfn import ExactSupportFunction
    from latticecalc.uniform import explicit_uniform
    from fractions import Fraction

    bump = ExactSupportFunction(
        states=EXCLUSION.states, support=(0,), table=(Fraction(0), Fraction(1)),
        base_index=0,
    )
    lopsided = explicit_uniform(EXCLUSION.states, G13, 0, 0, {(0,): bump})
    bad = is_invariant(lopsided, EXCLUSION, state_probe=probes)
    assert not bad.invariant
    assert bad.witness is not None
    assert bad.witness.before in probes


# ---------------------------------------------------------------------------
# the object-based enumeration the integer search replaced, kept as reference


def reference_neighbors(phi, eta):
    """Both orientations of every edge, each reachable configuration once."""
    out = []
    for x, y in eta.graph.unordered_edges():
        seen = set()
        for ox, oy in ((x, y), (y, x)):
            pair = (eta.state_at(ox), eta.state_at(oy))
            for c, d in phi.targets(pair):
                after = eta.with_sites({ox: c, oy: d})
                if after.assignments in seen:
                    continue
                seen.add(after.assignments)
                out.append(Transition(phi, eta, (ox, oy), (pair, (c, d))))
                assert out[-1].after == after
    return out


def reference_component_bfs(phi, eta, max_states):
    visited = {eta}
    queue = deque([eta])
    discovery = []
    truncated = False
    while queue:
        cur = queue.popleft()
        for tr in reference_neighbors(phi, cur):
            if tr.after in visited:
                continue
            if len(visited) >= max_states:
                truncated = True
                queue.clear()
                break
            visited.add(tr.after)
            discovery.append(tr)
            queue.append(tr.after)
    return visited, truncated, discovery


def assert_matches_reference(phi, eta, max_states_values):
    got, want = neighbors(phi, eta), reference_neighbors(phi, eta)
    assert [t.to_document() for t in got] == [t.to_document() for t in want]
    assert [t.after for t in got] == [t.after for t in want]
    codes = ConfigCode(phi, eta.graph)
    for max_states in max_states_values:
        res = component_bfs(phi, eta, max_states=max_states)
        visited, truncated, discovery = reference_component_bfs(phi, eta, max_states)
        assert res.steps == tuple(
            (codes.encode(t.before), t.edge, t.phi_edge, codes.encode(t.after))
            for t in discovery
        )
        assert res.visited == (codes.encode(eta),) + tuple(w for *_, w in res.steps)
        assert res.configurations == visited
        assert res.truncated == truncated
        assert [t.to_document() for t in res.discovery] == [
            t.to_document() for t in discovery
        ]
        assert [(t.before, t.after) for t in res.discovery] == [
            (t.before, t.after) for t in discovery
        ]


STRING_GRAPH = explicit_graph(
    ["d", "b", "a", "c", "e"], [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")]
)
GRAPHS = {
    "path": path_graph(5),
    "cycle": cycle_graph(5),
    "lattice": lattice_window(1, -3, 1),
    "lattice-k2": lattice_window(2, -2, 2),
    "strings": STRING_GRAPH,
}
BUILTINS = ["exclusion", "multispecies:2", "multispecies:3", "two-species-ac", "quastel2"]


@pytest.mark.parametrize("graph", GRAPHS.values(), ids=GRAPHS.keys())
@pytest.mark.parametrize("name", BUILTINS)
def test_integer_search_matches_the_object_search(name, graph):
    phi = builtin_interaction(name)
    rng = random.Random(f"{name}/{graph.vertices}")
    for _ in range(3):
        eta = random_configuration(
            rng, graph, phi.states, phi.states.base_index, max_occupied=len(graph.vertices)
        )
        assert_matches_reference(phi, eta, [1, 2, 3, 8, 10**6])


def malformed_documents(phi, eta):
    """One document per way a replay must fail: an edge the graph lacks, a
    move the interaction lacks, a source the configuration does not hold, a
    label the state space lacks, and two broken shapes."""
    graph, labels, n = eta.graph, phi.states.labels, phi.states.n
    x, y = graph.unordered_edges()[0]
    held = (eta.state_at(x), eta.state_at(y))
    first = min(phi.edges)
    far = next(
        e for e in itertools.permutations(graph.vertices, 2) if e not in graph.edges
    )
    docs = {
        "bad-edge": transition_document(far, first, labels),
        "unknown-label": {**transition_document((x, y), first, labels), "to": ["?", "?"]},
        "not-an-object": [x, y],
        "missing-key": {"edge": [x, y], "from": [labels[0], labels[0]]},
    }
    stuck = [p for p in itertools.product(range(n), repeat=2) if (held, p) not in phi.edges]
    if stuck:
        docs["non-move"] = transition_document((x, y), (held, stuck[0]), labels)
    elsewhere = [e for e in sorted(phi.edges) if e[0] != held]
    if elsewhere:
        docs["source-mismatch"] = transition_document((x, y), elsewhere[0], labels)
    return docs


@pytest.mark.parametrize("graph", GRAPHS.values(), ids=GRAPHS.keys())
@pytest.mark.parametrize("name", BUILTINS)
def test_replay_on_codes_matches_the_object_replay(name, graph):
    phi = builtin_interaction(name)
    codes = ConfigCode(phi, graph)
    rng = random.Random(f"replay/{name}/{graph.vertices}")
    kinds = set()
    for _ in range(4):
        eta = random_configuration(
            rng, graph, phi.states, phi.states.base_index, max_occupied=len(graph.vertices)
        )
        start = codes.encode(eta)
        assert codes.decode(start, eta.base_index) == eta
        for tr in neighbors(phi, eta):
            assert codes.apply(codes.read(tr.to_document()), start) == codes.encode(tr.after)
        for kind, doc in malformed_documents(phi, eta).items():
            kinds.add(kind)
            with pytest.raises(errors.LatticeCalcError) as want:
                transition_from_document(doc, phi, eta)
            with pytest.raises(errors.LatticeCalcError) as got:
                codes.apply(codes.read(doc), start)
            assert (kind, got.type) == (kind, want.type)
    assert {"bad-edge", "unknown-label", "non-move", "source-mismatch"} <= kinds


def test_component_search_builds_no_configuration_or_transition(monkeypatch):
    eta = configuration(lattice_window(1, 0, 7), EXCLUSION.states, 0, {0: 1, 3: 1, 4: 1})
    built = []
    for cls in (uniform.Configuration, Transition):
        original = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, f=original: built.append(self) or f(self)
        )
    res = component_bfs(EXCLUSION, eta)
    assert built == [] and len(res.visited) == math.comb(8, 3)
    assert len(res.discovery) == len(res.visited) - 1
    assert len(built) == len(res.visited) + len(res.discovery)
    assert len(res.configurations) == len(res.visited)
    assert len(built) == len(res.visited) + len(res.discovery)  # nothing decoded twice


@st.composite
def lopsided_interactions(draw):
    """Random interactions with an identity edge ((a, b), (a, b)) and a move
    ((0, 1), (1, 1)) whose coordinate swap ((1, 0), (1, 1)) is absent."""
    n = draw(st.integers(2, 3))
    pairs = list(itertools.product(range(n), repeat=2))
    edges = set(draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(pairs)),
                              max_size=6)))
    edges -= {((1, 0), (1, 1)), ((1, 1), (1, 0))}
    edges.add(((0, 1), (1, 1)))
    fixed = draw(st.sampled_from(pairs))
    edges.add((fixed, fixed))
    base = draw(st.integers(0, n - 1))
    return make_interaction(state_space([str(i) for i in range(n)], str(base)), edges)


@settings(max_examples=40, deadline=None)
@given(
    phi=lopsided_interactions(),
    graph=st.sampled_from(list(GRAPHS.values())),
    seed=st.integers(0, 2**16),
    max_states=st.integers(1, 60),
)
def test_integer_search_matches_for_lopsided_interactions(phi, graph, seed, max_states):
    rng = random.Random(seed)
    eta = random_configuration(
        rng, graph, phi.states, phi.states.base_index, max_occupied=len(graph.vertices)
    )
    assert_matches_reference(phi, eta, [max_states, 10**6])


def test_integer_search_fires_moves_in_both_orientations():
    states = state_space(["0", "1"], base="0")
    grow = make_interaction(states, [((0, 1), (1, 1)), ((0, 0), (0, 0))])
    eta = configuration(path_graph(4), states, 0, {2: 1})
    assert [t.edge for t in neighbors(grow, eta)] == [(0, 1), (1, 2), (3, 2)]
    assert_matches_reference(grow, eta, [1, 2, 3, 10**6])


def test_config_code_is_the_enumeration_order():
    g = explicit_graph(["b", "a", "c"], [("b", "a"), ("a", "c")])
    codes = ConfigCode(AC, g)
    assert codes.size == 27
    for code, digits in enumerate(itertools.product(range(3), repeat=3)):
        eta = configuration(g, AC.states, 1, dict(zip(g.vertices, digits)))
        assert codes.encode(eta) == code
        want = [(t.edge, t.phi_edge, codes.encode(t.after)) for t in neighbors(AC, eta)]
        assert list(codes.fire(code)) == want


@pytest.mark.parametrize(
    "doc",
    [
        {"edge": [0, 1], "from": "10", "to": ["0", "1"]},
        {"edge": [0, 1], "from": ["1", "0"], "to": "01"},
        {"edge": "01", "from": ["1", "0"], "to": ["0", "1"]},
        {"edge": [0, 1], "from": ["1", "0", "7"], "to": ["0", "1", "x"]},
        {"edge": [0, 1, 2], "from": ["1", "0"], "to": ["0", "1"]},
        {"edge": [0, 1], "from": ["1"], "to": ["0", "1"]},
        {"edge": (0, 1), "from": ["1", "0"], "to": ["0", "1"]},
    ],
)
def test_transition_documents_need_lists_of_two_entries(doc):
    """Each of these names the hop 0 -> 1 from a particle at site 0 but for
    its shape, so only the shape check can reject it."""
    eta = configuration(G13, EXCLUSION.states, 0, {0: 1})
    good = {"edge": [0, 1], "from": ["1", "0"], "to": ["0", "1"]}
    codes = ConfigCode(EXCLUSION, G13)
    assert codes.apply(codes.read(good), codes.encode(eta)) == codes.encode(
        transition_from_document(good, EXCLUSION, eta).after
    )
    with pytest.raises(errors.SchemaError):
        transition_from_document(doc, EXCLUSION, eta)
    with pytest.raises(errors.SchemaError):
        codes.apply(codes.read(doc), codes.encode(eta))


NEIGHBOR_GRAPHS = {
    "path": path_graph(4),
    "cycle": cycle_graph(4),
    "strings": explicit_graph(["c", "a", "b"], [("c", "a"), ("a", "b")]),
    "lattice-k2": lattice_window(2, -2, 1),
}


def assert_neighbors_fire_as_codes(phi, graph):
    """``neighbors`` lists what ``ConfigCode.fire`` yields, in its order,
    from every configuration of ``graph`` at every base."""
    codes = ConfigCode(phi, graph)
    for base, code in itertools.product(range(phi.states.n), range(codes.size)):
        eta = codes.decode(code, base)
        got = [(t.edge, t.phi_edge, codes.encode(t.after)) for t in neighbors(phi, eta)]
        assert got == list(codes.fire(code))


@pytest.mark.parametrize("graph", NEIGHBOR_GRAPHS.values(), ids=NEIGHBOR_GRAPHS.keys())
@pytest.mark.parametrize("name", BUILTINS)
def test_neighbors_fire_as_the_codes_do(name, graph):
    assert_neighbors_fire_as_codes(builtin_interaction(name), graph)


@settings(max_examples=40, deadline=None)
@given(phi=small_interactions(), graph=st.sampled_from(list(NEIGHBOR_GRAPHS.values())))
def test_neighbors_fire_as_the_codes_do_for_random_interactions(phi, graph):
    assert_neighbors_fire_as_codes(phi, graph)


@pytest.mark.parametrize("name", ["exclusion", "two-species-ac"])
def test_neighbors_check_no_vertex_beyond_the_transitions_own(monkeypatch, name):
    """The states at the graph's own edges are read without the public
    vertex check; each ``Transition`` still checks its source's sites."""
    phi, graph = builtin_interaction(name), lattice_window(1, 0, 40)
    nonbase = int(phi.states.base_index == 0)
    eta = configuration(graph, phi.states, phi.states.base_index, {5: nonbase, 30: nonbase})
    calls = []
    check = type(graph).require_vertex
    monkeypatch.setattr(type(graph), "require_vertex",
                        lambda self, *sites: calls.append(sites) or check(self, *sites))
    found = neighbors(phi, eta)
    seen = len(calls)
    calls.clear()
    rebuilt = [Transition(phi, eta, tr.edge, tr.phi_edge) for tr in found]
    assert found and rebuilt == found
    assert seen == len(calls)


@pytest.mark.parametrize("name", ["exclusion", "two-species-ac"])
def test_swap_path_checks_no_vertex_beyond_its_ends_and_transitions(monkeypatch, name):
    """The states at each hop of the graph's own path are read without the
    public vertex check: x and y are checked by the expected configuration
    and ``shortest_path``, and each ``Transition`` still checks its source's
    sites."""
    phi, graph = builtin_interaction(name), lattice_window(1, 0, 40)
    base = phi.states.base_index
    nonbase = [s for s in range(phi.states.n) if s != base]
    eta = configuration(graph, phi.states, base, {5: nonbase[0], 12: nonbase[-1]})
    calls = []
    check = type(graph).require_vertex
    monkeypatch.setattr(type(graph), "require_vertex",
                        lambda self, *sites: calls.append(sites) or check(self, *sites))
    path = swap_path(phi, eta, 5, 20)
    seen = len(calls)
    calls.clear()
    expected = eta.with_sites({5: eta.state_at(20), 20: eta.state_at(5)})
    shortest_path(graph, 5, 20)
    cur = eta
    for tr in path:
        cur = Transition(phi, cur, tr.edge, tr.phi_edge).after
    assert path and cur == expected
    assert seen == len(calls)


def reference_fire(codes, code):
    """``ConfigCode.fire`` as it was before its moves were tabulated: read
    both digits at each sorted edge, then orient and offset every move."""
    n, moves = codes.phi.states.n, codes.phi.edge_moves
    for x, y in codes.graph.unordered_edges():
        px, py = codes.place[x], codes.place[y]
        s, t = code // px % n, code // py % n
        for flipped, phi_edge, (c, d) in moves[(s, t)]:
            edge = (y, x) if flipped else (x, y)
            yield edge, phi_edge, code + (c - s) * px + (d - t) * py


FIRE_GRAPHS = {"path": path_graph(4), "cycle": cycle_graph(4), "strings": STRING_GRAPH}


@pytest.mark.parametrize("graph", FIRE_GRAPHS.values(), ids=FIRE_GRAPHS.keys())
@pytest.mark.parametrize("name", BUILTINS)
def test_fire_keeps_the_reference_order(name, graph):
    codes = ConfigCode(builtin_interaction(name), graph)
    for code in range(codes.size):
        assert list(codes.fire(code)) == list(reference_fire(codes, code))


@settings(max_examples=60, deadline=None)
@given(phi=small_interactions(), graph=st.sampled_from(list(FIRE_GRAPHS.values())))
def test_fire_keeps_the_reference_order_for_random_interactions(phi, graph):
    codes = ConfigCode(phi, graph)
    for code in range(codes.size):
        assert list(codes.fire(code)) == list(reference_fire(codes, code))


# ---------------------------------------------------------------------------
# one move rule for both readers of a transition document


@settings(max_examples=60, deadline=None)
@given(phi=small_interactions(), graph=st.sampled_from(list(FIRE_GRAPHS.values())),
       data=st.data())
def test_both_readers_replay_every_move_and_the_target_is_the_decoded_code(phi, graph, data):
    codes = ConfigCode(phi, graph)
    base = data.draw(st.integers(0, phi.states.n - 1))
    eta = codes.decode(data.draw(st.integers(0, codes.size - 1)), base)
    for tr in neighbors(phi, eta):
        doc = tr.to_document()
        assert transition_from_document(doc, phi, tr.before) == tr
        assert codes.apply(codes.read(doc), codes.encode(tr.before)) == codes.encode(tr.after)
    res = component_bfs(phi, eta, max_states=50)
    assert [tr.after for tr in res.discovery] == [codes.decode(w, base) for *_, w in res.steps]


def move_membership_tests(tree: ast.AST) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each ``in`` / ``not in`` test against
    something named ``edges``: ``e in graph.edges``, ``e not in edges``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Compare)
                    and any(isinstance(op, (ast.In, ast.NotIn)) for op in child.ops)
                    and any(getattr(side, "attr", getattr(side, "id", None)) == "edges"
                            for side in child.comparators)):
                found.append((where, child.lineno))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(tree, None)
    return found


def test_only_the_move_rule_tests_membership_in_the_edges():
    source = open(transitions.__file__, encoding="utf-8").read()
    assert {where for where, _ in move_membership_tests(ast.parse(source))} == {"_require_move"}


@pytest.mark.parametrize(
    "source,found",
    [
        ("if (x, y) not in graph.edges:\n    pass\n", [(None, 1)]),
        ("def f(self, e):\n    return e in self.phi.edges\n", [("f", 2)]),
        ("class C:\n    def g(self, edges, e):\n        return e not in edges\n", [("g", 3)]),
        ("ok = e in g.edges and p in phi.edges", [(None, 1), (None, 1)]),
        ("for e in phi.edges:\n    pass\n", []),
        ("ok = x in graph.vertices or e in graph.unordered_edges()", []),
        ("ok = e == phi.edges", []),
    ],
)
def test_the_move_scan_sees_each_membership_test(source, found):
    assert move_membership_tests(ast.parse(source)) == found
