"""Interactions, pair components, exchangeability, conserved quantities.

Dimension results are cross-checked against sympy nullspaces and the pair
graph against networkx components, so the frozen numbers below never rest on
the implementation under test.
"""

import itertools
import random
from collections import deque
from fractions import Fraction

import networkx as nx
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticecalc import errors, linalg
from latticecalc.interaction import (
    ConservedQuantity,
    _template_rows,
    builtin_interaction,
    consv_basis,
    interaction_to_document,
    is_exchangeable,
    load_interaction,
    make_interaction,
    pair_components,
    pair_exchange_path,
    state_space,
)

from conftest import reference_template_rows, small_interactions

BUILTINS = ["exclusion", "multispecies:1", "multispecies:2", "multispecies:3",
            "two-species-ac", "quastel2"]


def pair_graph(phi):
    g = nx.Graph()
    n = phi.states.n
    g.add_nodes_from(itertools.product(range(n), repeat=2))
    g.add_edges_from(phi.edges)
    return g


def sympy_consv_dimension(phi, base):
    n = phi.states.n
    rows = [[1 if j == base else 0 for j in range(n)]]
    for (a, b), (c, d) in sorted(phi.edges):
        row = [0] * n
        for idx, sign in ((a, 1), (b, 1), (c, -1), (d, -1)):
            row[idx] += sign
        rows.append(row)
    return len(sympy.Matrix(rows).nullspace())


def test_builtin_edge_counts():
    assert len(builtin_interaction("exclusion").edges) == 2
    assert len(builtin_interaction("multispecies:2").edges) == 6
    assert len(builtin_interaction("two-species-ac").edges) == 10
    assert len(builtin_interaction("quastel2").edges) == 4


def test_unknown_builtin_rejected():
    with pytest.raises(errors.SchemaError):
        builtin_interaction("nope")
    with pytest.raises(errors.SchemaError):
        builtin_interaction("multispecies:0")


def test_annihilation_creation_pair_components():
    phi = builtin_interaction("two-species-ac")
    pc = pair_components(phi)
    assert pc.count == 5
    s = phi.states.index
    m, z, p = s("-1"), s("0"), s("1")
    groups = {frozenset(pc.members(cid)) for cid in range(pc.count)}
    assert groups == {
        frozenset({(z, z), (p, m), (m, p)}),
        frozenset({(m, z), (z, m)}),
        frozenset({(p, z), (z, p)}),
        frozenset({(m, m)}),
        frozenset({(p, p)}),
    }


@pytest.mark.parametrize("name", BUILTINS)
def test_pair_components_match_networkx(name):
    phi = builtin_interaction(name)
    pc = pair_components(phi)
    oracle = list(nx.connected_components(pair_graph(phi)))
    assert pc.count == len(oracle)
    mine = {frozenset(pc.members(cid)) for cid in range(pc.count)}
    assert mine == {frozenset(c) for c in oracle}


@pytest.mark.parametrize(
    "name,expected",
    [
        ("exclusion", True),
        ("multispecies:1", True),
        ("multispecies:2", True),
        ("multispecies:3", True),
        ("two-species-ac", True),
        ("quastel2", False),
    ],
)
def test_exchangeability(name, expected):
    assert is_exchangeable(builtin_interaction(name)) is expected


def test_exchange_path_replays_to_swapped_pair():
    for name in BUILTINS:
        phi = builtin_interaction(name)
        if not is_exchangeable(phi):
            continue
        for a in range(phi.states.n):
            for b in range(phi.states.n):
                path = pair_exchange_path(phi, a, b)
                cur = (a, b)
                for edge in path:
                    assert edge in phi.edges
                    assert edge[0] == cur
                    cur = edge[1]
                assert cur == (b, a)


def test_exchange_path_uses_annihilation_route():
    phi = builtin_interaction("two-species-ac")
    s = phi.states.index
    path = pair_exchange_path(phi, s("1"), s("-1"))
    assert len(path) == 1  # the direct swap edge exists


def test_unswappable_pair_raises():
    phi = builtin_interaction("quastel2")
    with pytest.raises(errors.NotExchangeableError):
        pair_exchange_path(phi, 1, 2)


@pytest.mark.parametrize(
    "name,dim",
    [
        ("exclusion", 1),
        ("multispecies:1", 1),
        ("multispecies:2", 2),
        ("multispecies:3", 3),
        ("two-species-ac", 1),
        ("quastel2", 2),
    ],
)
def test_consv_dimension(name, dim):
    phi = builtin_interaction(name)
    base = phi.states.base_index
    basis = consv_basis(phi, base)
    assert len(basis) == dim
    assert sympy_consv_dimension(phi, base) == dim
    for xi in basis:
        assert xi.pair_sum_constant(phi)
        assert xi.values[base] == 0


def test_multispecies_standard_basis():
    phi = builtin_interaction("multispecies:2")
    basis = consv_basis(phi, 0)
    docs = [xi.to_document() for xi in basis]
    assert docs == [
        {"0": "0", "1": "1", "2": "0"},
        {"0": "0", "1": "0", "2": "1"},
    ]


def test_annihilation_creation_charge():
    phi = builtin_interaction("two-species-ac")
    (xi,) = consv_basis(phi, phi.states.index("0"))
    # one-dimensional: the signed particle count, up to normalization
    assert xi.value("1") == -xi.value("-1") != 0
    assert xi.value("0") == 0


def test_conserved_quantity_validation():
    st3 = state_space(["0", "1", "2"], base="0")
    with pytest.raises(errors.NormalizationError):
        ConservedQuantity(states=st3, values=(Fraction(1), Fraction(0), Fraction(0)),
                          base_index=0)
    xi = ConservedQuantity(states=st3, values=("0", "2", "-1/3"), base_index=0)
    assert xi.value("2") == Fraction(-1, 3)
    assert xi.to_document() == {"0": "0", "1": "2", "2": "-1/3"}


def test_document_roundtrip_and_symmetry_modes():
    phi = builtin_interaction("two-species-ac")
    doc = interaction_to_document(phi)
    assert doc["symmetry"] == "strict"
    back = load_interaction(doc)
    assert back.edges == phi.edges
    assert back.states == phi.states

    half = {
        "states": ["0", "1"],
        "edges": [[["0", "1"], ["1", "0"]]],
        "base": "0",
    }
    closed = load_interaction(half)
    assert len(closed.edges) == 2
    with pytest.raises(errors.AsymmetricEdgesError):
        load_interaction({**half, "symmetry": "strict"})
    with pytest.raises(errors.UnknownStateError):
        load_interaction({**half, "edges": [[["0", "9"], ["1", "0"]]]})


def random_interactions():
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=4))
        states = state_space([str(i) for i in range(n)], base="0")
        pool = [
            (p, q)
            for p in itertools.product(range(n), repeat=2)
            for q in itertools.product(range(n), repeat=2)
            if p != q
        ]
        chosen = draw(st.lists(st.sampled_from(pool), max_size=8))
        return make_interaction(states, chosen, symmetry="lenient")

    return build()


def reference_consv_vectors(phi, base):
    """``consv_basis`` as it was: a pair-sum row for every directed edge, so
    each unordered edge twice, once negated."""
    rows = [{base: 1}]
    for (a, b), (c, d) in sorted(phi.edges):
        row = {}
        for idx, sign in ((a, 1), (b, 1), (c, -1), (d, -1)):
            new = row.get(idx, 0) + sign
            if new:
                row[idx] = new
            else:
                row.pop(idx, None)
        if row:
            rows.append(row)
    return linalg.nullspace(rows, phi.states.n)


def assert_consv_matches_every_directed_edge(phi):
    for base in range(phi.states.n):
        got = [xi.values for xi in consv_basis(phi, base)]
        assert got == reference_consv_vectors(phi, base)


@pytest.mark.parametrize("name", BUILTINS)
def test_consv_basis_matches_the_rows_of_every_directed_edge(name):
    assert_consv_matches_every_directed_edge(builtin_interaction(name))


@settings(deadline=None, max_examples=60)
@given(small_interactions())
def test_consv_basis_matches_the_rows_of_every_directed_edge_for_generated(phi):
    assert_consv_matches_every_directed_edge(phi)


@settings(deadline=None, max_examples=40)
@given(random_interactions())
def test_random_interactions_consv_basis_is_conserved(phi):
    basis = consv_basis(phi, 0)
    assert len(basis) == sympy_consv_dimension(phi, 0)
    for xi in basis:
        assert xi.pair_sum_constant(phi)


@settings(deadline=None, max_examples=40)
@given(random_interactions())
def test_random_interactions_components_match_networkx(phi):
    pc = pair_components(phi)
    assert pc.count == nx.number_connected_components(pair_graph(phi))


def reference_pair_components(phi):
    """The search ``pair_components`` used to run itself: (ids, count)."""
    n = phi.states.n
    ids = [-1] * (n * n)
    count = 0
    for a, b in itertools.product(range(n), repeat=2):
        start = a * n + b
        if ids[start] != -1:
            continue
        ids[start] = count
        queue = deque([(a, b)])
        while queue:
            pair = queue.popleft()
            for c, d in phi.targets(pair):
                if ids[c * n + d] == -1:
                    ids[c * n + d] = count
                    queue.append((c, d))
        count += 1
    return tuple(ids), count


def reference_pair_exchange_path(phi, s1, s2):
    """The search ``pair_exchange_path`` used to run itself; None when
    (s2, s1) is unreachable from (s1, s2)."""
    start, goal = (s1, s2), (s2, s1)
    if start == goal:
        return []
    parents = {}
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in phi.targets(cur):
            if nxt in seen:
                continue
            seen.add(nxt)
            parents[nxt] = (cur, (cur, nxt))
            if nxt == goal:
                path = []
                node = goal
                while node != start:
                    prev, edge = parents[node]
                    path.append(edge)
                    node = prev
                return path[::-1]
            queue.append(nxt)
    return None


def assert_pair_searches_match_the_references(phi):
    pc = pair_components(phi)
    assert (pc.component_id, pc.count) == reference_pair_components(phi)
    for a, b in itertools.product(range(phi.states.n), repeat=2):
        want = reference_pair_exchange_path(phi, a, b)
        if want is None:
            with pytest.raises(errors.NotExchangeableError):
                pair_exchange_path(phi, a, b)
        else:
            assert pair_exchange_path(phi, a, b) == want


# (0, 1) reaches (1, 0) in two moves through (1, 1) or through (2, 2)
TIED = make_interaction(
    state_space(["0", "1", "2"]),
    [((0, 1), (1, 1)), ((1, 1), (1, 0)), ((0, 1), (2, 2)), ((2, 2), (1, 0))],
)


@pytest.mark.parametrize("name", BUILTINS + ["tied"])
def test_pair_searches_match_the_references(name):
    phi = TIED if name == "tied" else builtin_interaction(name)
    assert_pair_searches_match_the_references(phi)


@st.composite
def dense_interactions(draw):
    """Up to 16 moves on 2-4 states: enough for ties between shortest paths."""
    n = draw(st.integers(2, 4))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(st.tuples(pairs, pairs), max_size=16))
    return make_interaction(state_space([str(i) for i in range(n)]), edges)


@settings(deadline=None, max_examples=120)
@given(st.one_of(small_interactions(), dense_interactions()))
def test_pair_searches_match_the_references_on_random_interactions(phi):
    """The same ids, and for every pair the same edge list or the same
    refusal: ``swap-path`` prints the path this search picks."""
    assert_pair_searches_match_the_references(phi)


def test_edge_moves_order_on_two_species_ac():
    ac = builtin_interaction("two-species-ac")
    m, z, p = 0, 1, 2
    # the flipped orientation only re-finds pairs here: the edge set is
    # symmetric under swapping coordinates
    assert ac.edge_moves == {
        (m, m): (),
        (m, z): ((False, ((m, z), (z, m)), (z, m)),),
        (m, p): ((False, ((m, p), (z, z)), (z, z)), (False, ((m, p), (p, m)), (p, m))),
        (z, m): ((False, ((z, m), (m, z)), (m, z)),),
        (z, z): ((False, ((z, z), (m, p)), (m, p)), (False, ((z, z), (p, m)), (p, m))),
        (z, p): ((False, ((z, p), (p, z)), (p, z)),),
        (p, m): ((False, ((p, m), (m, p)), (m, p)), (False, ((p, m), (z, z)), (z, z))),
        (p, z): ((False, ((p, z), (z, p)), (z, p)),),
        (p, p): (),
    }


def test_edge_moves_keep_flipped_and_identity_moves():
    states = state_space(["0", "1"], base="0")
    phi = make_interaction(states, [((0, 1), (1, 1)), ((0, 0), (0, 0))])
    assert phi.edge_moves[(0, 0)] == ((False, ((0, 0), (0, 0)), (0, 0)),)
    # (1, 0) fires only as (y, x), where it reads (0, 1)
    assert phi.edge_moves[(1, 0)] == ((True, ((0, 1), (1, 1)), (1, 1)),)
    assert phi.edge_moves[(1, 1)] == (
        (False, ((1, 1), (0, 1)), (0, 1)),
        (True, ((1, 1), (0, 1)), (1, 0)),
    )
    assert phi.edge_moves[(0, 1)] == ((False, ((0, 1), (1, 1)), (1, 1)),)


# ---------------------------------------------------------------------------
# template rows: the Möbius components of the configuration rows


def assert_template_rows_are_moebius_components(phi, reach, j, base):
    """Every entry is ±1 and each sign has at most three.  Each column's
    support spans at most ``reach`` through 0 or j, and off {0, j} it holds
    the row's pattern: the same sites and states for every column of the
    row, patterns in order of (|T|, T).  The rows span what the rows of the
    former generator span."""
    columns, rows = _template_rows(phi, reach, j, base)
    patterns = []
    for row in rows:
        assert row and set(row.values()) <= {1, -1}
        assert all(sum(v == sign for v in row.values()) <= 3 for sign in (1, -1))
        lams = [columns[c][0] for c in row]
        assert all(lam[-1] - lam[0] <= reach and (0 in lam or j in lam) for lam in lams)
        (pattern,) = {tuple((x, e) for x, e in zip(*columns[c]) if x not in (0, j)) for c in row}
        patterns.append(tuple(x for x, _ in pattern))
    assert patterns == sorted(patterns, key=lambda sites: (len(sites), sites))
    former = list(reference_template_rows(phi, reach, j, base))
    keys = sorted({*columns, *(key for row in former for key in row)})
    number = {key: i for i, key in enumerate(keys)}
    new = [{number[columns[c]]: v for c, v in row.items()} for row in rows]
    old = [{number[key]: v for key, v in row.items()} for row in former]
    assert linalg.echelon(new).rref_rows() == linalg.echelon(old).rref_rows()


@pytest.mark.parametrize("name", BUILTINS)
def test_template_rows_are_moebius_components(name):
    phi = builtin_interaction(name)
    for base, reach, j in itertools.product(range(phi.states.n), range(4), range(1, 4)):
        assert_template_rows_are_moebius_components(phi, reach, j, base)


# creation next to a particle changes one site of the edge, which no
# builtin move does: E = (1,) misses it and must give no column
ONE_SITE_MOVE = make_interaction(state_space(["0", "1"], "0"), [((0, 1), (1, 1))])


@settings(deadline=None, max_examples=60)
@given(small_interactions(), st.integers(0, 3), st.integers(1, 3))
@example(ONE_SITE_MOVE, 1, 1)
def test_template_rows_are_moebius_components_for_generated(phi, reach, j):
    assert_template_rows_are_moebius_components(phi, reach, j, phi.states.base_index)
