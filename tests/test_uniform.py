"""Uniform functions: evaluation, differences, base changes, serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecalc import errors
from latticecalc.interaction import (
    ConservedQuantity,
    builtin_interaction,
    consv_basis,
)
from latticecalc.localfn import ExactSupportFunction, LocalFunction
from latticecalc.sitegraph import explicit_graph, lattice_window, path_graph
from latticecalc.uniform import (
    configuration,
    configuration_to_document,
    difference,
    evaluate,
    explicit_uniform,
    families_equal,
    family_items,
    family_map,
    load_configuration,
    load_local_function,
    load_uniform,
    local_function_to_document,
    rebase,
    sum_of_uniformly_local,
    to_uniformly_local,
    translated_uniform,
    uniform_to_document,
    xi_X,
    zero_uniform,
)

from conftest import exact_support_functions, window_configurations

AC = builtin_interaction("two-species-ac")
ST = AC.states
G = lattice_window(1, -6, 6)


def esf(support, entries):
    probe = LocalFunction.from_entries(ST, support, entries)
    return ExactSupportFunction(
        states=ST, support=probe.support, table=probe.table, base_index=1
    )


def sample_function():
    return translated_uniform(
        ST, G, 1, 1,
        {
            (0,): esf((0,), {(0,): 2, (2,): 7}),
            (0, 1): esf((0, 1), {(0, 0): 3, (0, 2): -1, (2, 0): 5, (2, 2): 2}),
        },
    )


def test_configuration_drops_base_assignments():
    eta = configuration(G, ST, 1, {0: 2, 3: 1, -2: 0})
    assert eta.support() == (-2, 0)
    assert eta.state_at(3) == 1
    assert eta.state_at(0) == 2
    eta2 = eta.with_sites({0: 1, 5: 2})
    assert eta2.support() == (-2, 5)


def test_configuration_rejects_unknown_sites_and_states():
    for state in (2, 1):  # a non-vertex is refused whatever its state, the base too
        with pytest.raises(errors.UnknownVertexError):
            configuration(G, ST, 1, {99: state})
        with pytest.raises(errors.UnknownVertexError):
            configuration(G, ST, 1, {}).with_sites({99: state})
    with pytest.raises(errors.SchemaError):
        configuration(G, ST, 1, {0: 9})


def test_explicit_uniform_enforces_radius():
    far = esf((0, 4), {(0, 0): 1})
    with pytest.raises(errors.LocalityError):
        explicit_uniform(ST, G, 1, 1, {(0, 4): far})
    ok = explicit_uniform(ST, G, 1, 4, {(0, 4): far})
    assert ok.radius == 4


@pytest.mark.parametrize("radius", [True, 1.0], ids=["bool", "float"])
def test_uniform_function_radius_must_be_an_int(radius):
    with pytest.raises(errors.SchemaError, match="radius"):
        explicit_uniform(ST, G, 1, radius, {(0,): esf((0,), {(0,): 1})})


@pytest.mark.parametrize("radius", [True, 1.0], ids=["bool", "float"])
def test_sum_of_uniformly_local_radius_must_be_an_int(radius):
    inside = LocalFunction.from_entries(ST, (0,), {(0,): 1})
    with pytest.raises(errors.SchemaError, match="radius"):
        sum_of_uniformly_local({0: inside}, radius, G, 1)


def test_translated_templates_must_anchor_at_zero():
    with pytest.raises(errors.SchemaError):
        translated_uniform(ST, G, 1, 1, {(1,): esf((1,), {(0,): 1})})
    with pytest.raises(errors.SchemaError):
        translated_uniform(ST, path_graph(3), 1, 0, {(0,): esf((0,), {(0,): 1})})


def test_family_items_materializes_translates():
    f = sample_function()
    keys = [k for k, _ in family_items(f)]
    assert (-6,) in keys and (6,) in keys
    assert (-6, -5) in keys and (5, 6) in keys
    assert (6, 7) not in keys
    assert len(keys) == 13 + 12


def test_evaluate_sums_components_inside_support():
    f = sample_function()
    empty = configuration(G, ST, 1, {})
    assert evaluate(f, empty) == 0
    eta = configuration(G, ST, 1, {2: 0, 3: 2})
    # singles: 2 at site 2, 7 at site 3; pair (2,3): entry (0,2) = -1
    assert evaluate(f, eta) == 2 + 7 - 1


def test_difference_equals_evaluation_gap():
    f = sample_function()
    a = configuration(G, ST, 1, {2: 0, 3: 2})
    b = configuration(G, ST, 1, {-1: 2})
    assert difference(f, a, b) == evaluate(f, b) - evaluate(f, a)
    assert difference(f, a, a) == 0


@settings(deadline=None, max_examples=60)
@given(window_configurations(G, ST, 1), window_configurations(G, ST, 1))
def test_difference_is_a_potential(a, b):
    f = sample_function()
    assert difference(f, a, b) == evaluate(f, b) - evaluate(f, a)
    assert difference(f, a, b) == -difference(f, b, a)


def test_xi_X_lattice_is_translated():
    (xi,) = consv_basis(AC, 1)
    f = xi_X(xi, G, 1)
    assert f.kind == "translated"
    eta = configuration(G, ST, 1, {0: 0, 4: 2, 5: 2})
    assert evaluate(f, eta) == xi.values[0] + 2 * xi.values[2]


def test_xi_X_explicit_on_other_graphs():
    (xi,) = consv_basis(AC, 1)
    g = explicit_graph(["a", "b"], [("a", "b")])
    f = xi_X(xi, g, 1)
    assert f.kind == "explicit"
    assert set(family_map(f)) == {("a",), ("b",)}


def test_xi_X_requires_vanishing_base():
    values = (Fraction(1), Fraction(2), Fraction(0))
    xi = ConservedQuantity(states=ST, values=values)
    with pytest.raises(errors.NormalizationError):
        xi_X(xi, G, 1)


def test_sum_of_uniformly_local_checks_locality_and_normalization():
    inside = LocalFunction.from_entries(ST, (0,), {(0,): 1})
    outside = LocalFunction.from_entries(ST, (0, 2), {(0, 0): 1})
    bad_base = LocalFunction.from_entries(ST, (0,), {(1,): 1})
    inside_at_1 = LocalFunction.from_entries(ST, (1,), {(0,): 1})
    with pytest.raises(errors.LocalityError):
        sum_of_uniformly_local({0: outside}, 1, G, 1)
    with pytest.raises(errors.NormalizationError):
        sum_of_uniformly_local({0: bad_base}, 1, G, 1)
    f = sum_of_uniformly_local({0: inside, 1: inside_at_1}, 1, G, 1)
    assert evaluate(f, configuration(G, ST, 1, {0: 0, 1: 0})) == 2


def test_uniformly_local_roundtrip_keeps_the_family():
    f = sample_function()
    system = to_uniformly_local(f)
    back = sum_of_uniformly_local(system, f.radius + 1, G, 1)
    assert families_equal(back, f)


@settings(deadline=None, max_examples=40)
@given(
    exact_support_functions(ST, 1),
    exact_support_functions(ST, 1),
    st.sampled_from([0, 2]),
)
def test_rebase_involution_and_differences(c1, c2, new_base):
    comps = {c1.support: c1}
    if c2.support != c1.support:
        comps[c2.support] = c2
    radius = max(len(G.vertices), 1)
    f = explicit_uniform(ST, G, 1, radius, comps)
    moved = rebase(f, new_base)
    assert moved.base_index == new_base
    assert families_equal(rebase(moved, 1), f)
    # differences are base-independent: re-express two configurations
    a = configuration(G, ST, 1, {-2: 0, 1: 2})
    b = configuration(G, ST, 1, {3: 2})
    re_a = configuration(
        G, ST, new_base,
        {x: a.state_at(x) for x in G.vertices if a.state_at(x) != new_base},
    )
    re_b = configuration(
        G, ST, new_base,
        {x: b.state_at(x) for x in G.vertices if b.state_at(x) != new_base},
    )
    assert evaluate(f, b) - evaluate(f, a) == evaluate(moved, re_b) - evaluate(moved, re_a)


def test_rebase_translated_stays_translated():
    f = sample_function()
    moved = rebase(f, 0)
    assert moved.kind == "translated"
    assert families_equal(rebase(moved, 1), f)


def _at(eta, base):
    """``eta`` written at ``base``: every site of its graph listed."""
    graph = eta.graph
    return configuration(graph, eta.states, base, {x: eta.state_at(x) for x in graph.vertices})


def test_translated_rebase_is_exact_on_z_not_at_the_window_edge():
    """Exclusion on [0, 3], the pair template (1, 1) -> 1, rebased to base 1.
    Emptying site 0 of the full window removes one pair inside the window
    but two on Z: the translated rebase answers for Z, since beyond the
    window every site holds the new base, occupied."""
    phi = builtin_interaction("exclusion")
    window = lattice_window(1, 0, 3)
    pair = ExactSupportFunction(states=phi.states, support=(0, 1), table=(0, 0, 0, 1))
    f = translated_uniform(phi.states, window, 0, 1, {(0, 1): pair})
    explicit = explicit_uniform(phi.states, window, 0, 1, family_map(f))
    full = configuration(window, phi.states, 0, dict.fromkeys(window.vertices, 1))
    for site, on_window in ((0, -1), (1, -2), (2, -2), (3, -1)):
        emptied = full.with_sites({site: 0})
        assert difference(f, full, emptied) == on_window
        assert difference(rebase(explicit, 1), _at(full, 1), _at(emptied, 1)) == on_window
        assert difference(rebase(f, 1), _at(full, 1), _at(emptied, 1)) == -2


@pytest.mark.parametrize("k,radius", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_rebase_keeps_differences_at_sites_k_r_from_both_ends(k, radius):
    """For random ``multispecies:2`` translated families, a change at a site
    at least k·R from both ends of the window has the same difference before
    and after either rebase."""
    rng = random.Random(1000 * k + radius)
    states = builtin_interaction("multispecies:2").states
    window = lattice_window(k, -5, 5)
    reach = k * radius
    interior = [x for x in window.vertices if -5 + reach <= x <= 5 - reach]
    for _ in range(8):
        templates = {}
        for size in range(1, min(3, reach + 1) + 1):
            others = tuple(sorted(rng.sample(range(1, reach + 1), size - 1)))
            probe = LocalFunction.from_function(
                states, (0, *others), lambda a: 0 if 0 in a else rng.randint(-3, 3))
            templates[probe.support] = probe
        f = translated_uniform(states, window, 0, radius, templates)
        explicit = explicit_uniform(states, window, 0, radius, family_map(f))
        for new_base in (1, 2):
            moved, moved_explicit = rebase(f, new_base), rebase(explicit, new_base)
            for _ in range(6):
                eta = configuration(window, states, 0,
                                    {x: rng.randrange(3) for x in window.vertices})
                site = rng.choice(interior)
                changed = eta.with_sites({site: (eta.state_at(site) + rng.randint(1, 2)) % 3})
                before = difference(f, eta, changed)
                after = (_at(eta, new_base), _at(changed, new_base))
                assert difference(moved, *after) == before
                assert difference(moved_explicit, *after) == before


def test_zero_uniform_and_constant_term():
    z = zero_uniform(ST, G, 1)
    assert z.constant_term() == 0
    assert not family_items(z)
    with_const = explicit_uniform(
        ST, G, 1, 0, {(): ExactSupportFunction(
            states=ST, support=(), table=(Fraction(3),), base_index=1
        )}
    )
    assert with_const.constant_term() == 3


def test_uniform_document_roundtrip():
    f = sample_function()
    doc = uniform_to_document(f)
    assert doc["kind"] == "translated"
    back = load_uniform(doc, ST, G)
    assert families_equal(back, f)

    g = explicit_uniform(ST, G, 1, 2, {(0, 1): esf((0, 1), {(0, 2): 4})})
    doc2 = uniform_to_document(g)
    assert doc2["components"] == [
        {"support": [0, 1], "table": {"-1,1": "4"}}
    ]
    assert families_equal(load_uniform(doc2, ST, G), g)


def test_document_support_must_be_sorted():
    doc = {
        "kind": "explicit", "base": "0", "radius": 1,
        "components": [{"support": [1, 0], "table": {"1,1": "1"}}],
    }
    with pytest.raises(errors.SchemaError):
        load_uniform(doc, ST, G)


@pytest.mark.parametrize("radius", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_uniform_document_radius_must_be_an_integer(radius):
    doc = {
        "kind": "explicit", "base": "0", "radius": radius,
        "components": [{"support": [0], "table": {"1": "1"}}],
    }
    with pytest.raises(errors.SchemaError):
        load_uniform(doc, ST, G)


@pytest.mark.parametrize("kind", ["explicit", "translated"])
@pytest.mark.parametrize(
    "items",
    [
        ["0"],
        [{"support": [0]}],
        [{"support": [0], "table": ["1"]}],
        [{"support": [0], "table": {"1": "1"}}, {"support": [0], "table": {"-1": "2"}}],
        5,
    ],
    ids=["item-not-object", "no-table", "table-not-object", "repeated-support",
         "items-not-list"],
)
def test_malformed_component_items_are_schema_errors(kind, items):
    key = "components" if kind == "explicit" else "template"
    doc = {"kind": kind, "base": "0", "radius": 1, key: items}
    with pytest.raises(errors.SchemaError):
        load_uniform(doc, ST, G)


def test_configuration_document_roundtrip():
    eta = configuration(G, ST, 1, {-3: 0, 2: 2})
    doc = configuration_to_document(eta)
    assert doc == {"base": "0", "assignments": {"-3": "-1", "2": "1"}}
    assert load_configuration(doc, ST, G) == eta


@pytest.mark.parametrize("base", [None, 0, 1, 2])
def test_configuration_document_read_at_any_base_keeps_every_state(base):
    doc = {"base": "0", "assignments": {"-3": "-1", "2": "1", "4": "0"}}
    eta = load_configuration(doc, ST, G, base)
    assert eta.base_index == (1 if base is None else base)
    assert [eta.state_at(x) for x in G.vertices] == [
        {-3: 0, 2: 2}.get(x, 1) for x in G.vertices]
    with pytest.raises(errors.UnknownVertexError):
        load_configuration({"base": "0", "assignments": {"9": "0"}}, ST, G, base)


def test_configuration_document_sites_follow_the_vertex_type():
    with pytest.raises(errors.SchemaError):
        load_configuration({"base": "0", "assignments": {"a": "1"}}, ST, G)
    g = explicit_graph(["a", "7"], [("a", "7")])
    eta = load_configuration({"base": "0", "assignments": {"7": "1"}}, ST, g)
    assert eta.assignments == (("7", 2),)


@pytest.mark.parametrize(
    "assignments", [{"1": "1", "01": "0"}, {"01": "0", "1": "1"}], ids=["1-01", "01-1"]
)
def test_configuration_document_rejects_two_keys_for_one_site(assignments):
    with pytest.raises(errors.SchemaError):
        load_configuration({"base": "0", "assignments": assignments},
                           builtin_interaction("exclusion").states, path_graph(3))


def test_local_function_document_roundtrip():
    f = LocalFunction.from_entries(ST, (0, 1), {(0, 2): Fraction(5, 3)})
    doc = local_function_to_document(f)
    assert doc == {"support": [0, 1], "table": {"-1,1": "5/3"}}
    assert load_local_function(doc, ST) == f
    with pytest.raises(errors.SchemaError):
        load_local_function({"support": [0], "table": {"1,0": "1"}}, ST)
