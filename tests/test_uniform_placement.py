"""One placement rule for both family kinds, against the per-kind code it
replaced.

``reference_evaluate``, ``reference_difference``, ``reference_family_items``,
``reference_rebase`` and ``reference_sum_of_uniformly_local`` are the earlier
versions, each with a branch per storage kind and its own loop summing
expansion pieces by support.  They are kept here as the reference: the
package must give the same values, the same materialized families and the
same rebased and summed families (or the same error) on generated families,
translated and explicit, on k=1 and k=2 lattice windows, with constant terms,
and on a graph with string vertices.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from latticecalc.errors import (
    LatticeCalcError,
    LocalityError,
    MismatchError,
    NormalizationError,
    SchemaError,
)
from latticecalc.interaction import builtin_interaction, state_space
from latticecalc.localfn import ExactSupportFunction, LocalFunction, expand
from latticecalc.sitegraph import ball, diameter_of, explicit_graph, lattice_window
from latticecalc.uniform import (
    EXPLICIT,
    TRANSLATED,
    configuration,
    difference,
    evaluate,
    explicit_uniform,
    family_items,
    rebase,
    sum_of_uniformly_local,
    translated_uniform,
)

from conftest import tables_for, window_configurations

STRING_GRAPH = explicit_graph(
    ["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("d", "e")]
)
GRAPHS = {
    "k1": lattice_window(1, -4, 4),
    "k2": lattice_window(2, -5, 5),
    "str": STRING_GRAPH,
}
STATE_SPACES = [
    builtin_interaction("exclusion").states,
    builtin_interaction("two-species-ac").states,
    state_space(["0", "1", "2", "3"], base="0"),
]


# ---------------------------------------------------------------------------
# the reference: one branch per family kind


def reference_family_items(f):
    if f.kind == EXPLICIT:
        return list(f.components)
    a, b = f.graph.window
    out = []
    for template, comp in f.components:
        span = max(template)
        for t in range(a, b - span + 1):
            shifted = tuple(s + t for s in template)
            out.append(
                (
                    shifted,
                    ExactSupportFunction(
                        states=comp.states,
                        support=shifted,
                        table=comp.table,
                        base_index=comp.base_index,
                    ),
                )
            )
    out.sort(key=lambda kv: (len(kv[0]), kv[0]))
    return out


def reference_evaluate(f, eta):
    supp = set(eta.support())
    total = Fraction(0)
    if f.kind == EXPLICIT:
        for key, comp in f.components:
            if set(key) <= supp:
                total += comp.value_at(tuple(eta.state_at(s) for s in key))
        return total
    a, b = f.graph.window
    for template, comp in f.components:
        span = max(template)
        for t in sorted(supp):
            if t + span > b or t < a:
                continue
            shifted = [s + t for s in template]
            if all(s in supp for s in shifted):
                total += comp.value_at(tuple(eta.state_at(s) for s in shifted))
    return total


def reference_difference(f, eta, eta2):
    changed = sorted(
        x
        for x in set(eta.support()) | set(eta2.support())
        if eta.state_at(x) != eta2.state_at(x)
    )
    if not changed:
        return Fraction(0)
    changed_set = set(changed)
    total = Fraction(0)
    if f.kind == EXPLICIT:
        for key, comp in f.components:
            if key and changed_set & set(key):
                after = comp.value_at(tuple(eta2.state_at(s) for s in key))
                before = comp.value_at(tuple(eta.state_at(s) for s in key))
                total += after - before
        return total
    a, b = f.graph.window
    for template, comp in f.components:
        span = max(template)
        for t in sorted({d - s for d in changed for s in template}):
            if t < a or t + span > b:
                continue
            shifted = [s + t for s in template]
            after = comp.value_at(tuple(eta2.state_at(s) for s in shifted))
            before = comp.value_at(tuple(eta.state_at(s) for s in shifted))
            total += after - before
    return total


def reference_rebase(f, new_base):
    if new_base == f.base_index:
        return f
    agg = {}
    for key, comp in f.components:
        if not key:
            continue
        plain = LocalFunction(states=comp.states, support=key, table=comp.table)
        for sub, piece in expand(plain, new_base).items():
            if not sub:
                continue
            if f.kind == TRANSLATED:
                shift = min(sub)
                sub = tuple(s - shift for s in sub)
            slot = agg.get(sub)
            if slot is None:
                agg[sub] = list(piece.table)
            else:
                for i, v in enumerate(piece.table):
                    slot[i] += v
    comps = {
        key: ExactSupportFunction(
            states=f.states, support=key, table=tuple(tab), base_index=new_base
        )
        for key, tab in agg.items()
        if any(tab)
    }
    if f.kind == EXPLICIT:
        carried = f.constant_term()
        if carried:
            comps[()] = ExactSupportFunction(
                states=f.states, support=(), table=(carried,), base_index=new_base
            )
        return explicit_uniform(f.states, f.graph, new_base, f.radius, comps)
    return translated_uniform(f.states, f.graph, new_base, f.radius, comps)


def reference_sum_of_uniformly_local(system, radius, graph, base):
    if not isinstance(radius, int) or radius < 0:
        raise SchemaError("radius must be a nonnegative integer")
    states = None
    agg = {}
    for x in sorted(system):
        fx = system[x]
        graph.require_vertex(x)
        if states is None:
            states = fx.states
        elif fx.states != states:
            raise MismatchError("system members disagree on the state space")
        allowed = ball(graph, x, radius)
        if not set(fx.support) <= allowed:
            raise LocalityError(
                f"f_{x!r} has support {fx.support} outside its radius-{radius} ball"
            )
        if fx.value_at((base,) * fx.arity) != 0:
            raise NormalizationError(f"f_{x!r} does not vanish on the all-base tuple")
        for key, comp in expand(fx, base).items():
            slot = agg.get(key)
            if slot is None:
                agg[key] = list(comp.table)
            else:
                for i, v in enumerate(comp.table):
                    slot[i] += v
    if states is None:
        raise SchemaError("empty system; pass at least one site function")
    comps = {
        key: ExactSupportFunction(
            states=states, support=key, table=tuple(tab), base_index=base
        )
        for key, tab in agg.items()
        if any(tab)
    }
    return explicit_uniform(states, graph, base, 2 * radius, comps)


# ---------------------------------------------------------------------------
# generated families


@st.composite
def exact_tables(draw, states, base, support):
    probe = LocalFunction.zero(states, support)
    table = list(draw(tables_for(states.n, len(support))))
    for assignment in probe.assignments():
        if base in assignment:
            table[probe.index_of(assignment)] = Fraction(0)
    return ExactSupportFunction(
        states=states, support=support, table=tuple(table), base_index=base
    )


@st.composite
def families(draw):
    """(family, its graph): translated on a lattice window, or explicit on
    any graph, the explicit ones sometimes with a constant term."""
    name = draw(st.sampled_from(sorted(GRAPHS)))
    graph = GRAPHS[name]
    states = draw(st.sampled_from(STATE_SPACES))
    base = draw(st.integers(0, states.n - 1))
    translated = name != "str" and draw(st.booleans())
    comps = {}
    if translated:
        radius = draw(st.integers(0, 2))
        offsets = list(range(1, graph.k * radius + 1))
        for _ in range(draw(st.integers(0, 3))):
            rest = draw(st.sets(st.sampled_from(offsets), max_size=2)) if offsets else set()
            key = (0, *sorted(rest))
            comps[key] = draw(exact_tables(states, base, key))
        return translated_uniform(states, graph, base, radius, comps), graph
    sites = st.sets(st.sampled_from(graph.vertices), min_size=1, max_size=3)
    for _ in range(draw(st.integers(0, 4))):
        key = tuple(sorted(draw(sites)))
        comps[key] = draw(exact_tables(states, base, key))
    if draw(st.booleans()):
        comps[()] = draw(exact_tables(states, base, ()))
    radius = max((diameter_of(graph, key) for key in comps), default=0)
    return explicit_uniform(states, graph, base, radius, comps), graph


@st.composite
def families_with_configurations(draw):
    f, graph = draw(families())
    configs = window_configurations(graph, f.states, f.base_index, max_occupied=5)
    eta = draw(configs)
    # a second configuration near the first: a few sites re-drawn
    moved = {x: draw(st.integers(0, f.states.n - 1))
             for x in draw(st.sets(st.sampled_from(graph.vertices), max_size=3))}
    near = eta.with_sites(moved)
    far = draw(configs)
    return f, eta, near, far


@settings(deadline=None, max_examples=150)
@given(families_with_configurations())
def test_evaluate_and_difference_match_the_per_kind_reference(case):
    f, eta, near, far = case
    for conf in (eta, near, far):
        assert evaluate(f, conf) == reference_evaluate(f, conf)
    for other in (near, far, eta):
        assert difference(f, eta, other) == reference_difference(f, eta, other)
        assert difference(f, other, eta) == reference_difference(f, other, eta)


@settings(deadline=None, max_examples=100)
@given(families(), st.integers(0, 3))
def test_family_items_and_rebase_match_the_per_kind_reference(case, new_base):
    f, _ = case
    assert family_items(f) == reference_family_items(f)
    new_base %= f.states.n
    assert rebase(f, new_base) == reference_rebase(f, new_base)


@st.composite
def uniformly_local_systems(draw):
    """Mostly valid systems; some member may reach outside its ball, fail to
    vanish on the all-base tuple or use other states, and the system may be
    empty."""
    graph = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]
    states = draw(st.sampled_from(STATE_SPACES[:2]))
    base = draw(st.integers(0, states.n - 1))
    radius = draw(st.integers(0, 2))
    system = {}
    for x in draw(st.sets(st.sampled_from(graph.vertices), max_size=4)):
        fx_states = STATE_SPACES[2] if draw(st.integers(0, 19)) == 0 else states
        near = sorted(ball(graph, x, radius))
        if draw(st.integers(0, 9)) == 0 or not near:
            near = list(graph.vertices)
        support = tuple(sorted(draw(st.sets(st.sampled_from(near), max_size=3))))
        table = list(draw(tables_for(fx_states.n, len(support))))
        if draw(st.integers(0, 9)):
            all_base = LocalFunction.zero(fx_states, support).index_of((base,) * len(support))
            table[all_base] = 0
        system[x] = LocalFunction(states=fx_states, support=support, table=tuple(table))
    return system, radius, graph, base


def outcome(fn, *args):
    try:
        return fn(*args)
    except LatticeCalcError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=150)
@given(uniformly_local_systems())
def test_sum_of_uniformly_local_matches_the_reference(case):
    assert outcome(sum_of_uniformly_local, *case) == outcome(
        reference_sum_of_uniformly_local, *case
    )


def test_string_vertex_family_places_components_where_listed():
    states = builtin_interaction("exclusion").states
    pair = ExactSupportFunction(
        states=states, support=("a", "b"), table=(0, 0, 0, Fraction(3)), base_index=0
    )
    single = ExactSupportFunction(states=states, support=("e",), table=(0, 1), base_index=0)
    const = ExactSupportFunction(states=states, support=(), table=(-2,), base_index=0)
    f = explicit_uniform(
        states, STRING_GRAPH, 0, 1, {("a", "b"): pair, ("e",): single, (): const}
    )
    eta = configuration(STRING_GRAPH, states, 0, {"a": 1, "b": 1})
    eta2 = configuration(STRING_GRAPH, states, 0, {"b": 1, "e": 1})
    assert evaluate(f, eta) == 1
    assert evaluate(f, eta2) == -1
    assert difference(f, eta, eta2) == -2
    assert family_items(f) == list(f.components)
