"""``Record`` behaves like the frozen dataclass each value class used to be.

Every record class is checked against a dataclass twin built from its
fields, defaults and unhashed fields, on real values: the builtins, lattice
windows, kernel bases and what the library computes from them.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecalc import (
    CochainSpaceSummary,
    ComponentResult,
    Configuration,
    ConservedQuantity,
    ExactSupportFunction,
    ExtractionResult,
    Interaction,
    InvarianceCheck,
    KernelReport,
    LocalFunction,
    SiteGraph,
    StateSpace,
    SupportError,
    Transition,
    UniformFunction,
    builtin_interaction,
    component_bfs,
    configuration,
    consv_basis,
    cycle_graph,
    extract_conserved,
    h0_h1_finite,
    invariance_kernel,
    is_invariant,
    lattice_window,
    neighbors,
    pair_components,
    path_graph,
    state_space,
    xi_X,
)
from latticecalc.caps import Caps
from latticecalc.errors import Record
from latticecalc.interaction import PairComponents

from conftest import local_functions, small_interactions, window_configurations

RECORD_CLASSES = [
    Caps, StateSpace, Interaction, PairComponents, ConservedQuantity, SiteGraph,
    LocalFunction, ExactSupportFunction, Configuration, UniformFunction, Transition,
    ComponentResult, InvarianceCheck, CochainSpaceSummary, ExtractionResult, KernelReport,
]

_TWINS: dict = {}


def twin(rec):
    """The same value as an instance of the frozen dataclass its class stands for."""
    cls = type(rec)
    if cls not in _TWINS:
        specs = []
        for name in cls._fields:
            options = {"hash": False} if name in cls._unhashed else {}
            if name in cls._defaults:
                options["default"] = cls._defaults[name]
            specs.append((name, object, dataclasses.field(**options)))
        _TWINS[cls] = dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True)
    return _TWINS[cls](**fields_of(rec))


def fields_of(rec) -> dict:
    return {name: getattr(rec, name) for name in rec._fields}


@pytest.fixture(scope="module")
def examples():
    """Real instances of every record class, each followed by an equal copy."""
    out: dict = {}

    def add(*recs):
        for rec in recs:
            out.setdefault(type(rec), []).extend([rec, rec.replace()])

    window = lattice_window(1, -4, 4)
    add(Caps(), Caps(max_bfs=5), window, path_graph(3), cycle_graph(4))
    for name in ("exclusion", "multispecies:2", "two-species-ac", "quastel2"):
        phi = builtin_interaction(name)
        states, base = phi.states, phi.states.base_index
        nonbase = int(base == 0)
        add(states, phi, pair_components(phi), *consv_basis(phi, base))
        report = invariance_kernel(phi, 1, window, base)
        add(report, *report.basis, *(c for f in report.basis for _, c in f.components))
        add(LocalFunction.from_entries(states, (0, 1), {(nonbase, nonbase): Fraction(3, 2)}),
            LocalFunction.constant(states, 2))
        eta = configuration(window, states, base, {0: nonbase, 1: nonbase})
        add(eta, *neighbors(phi, eta), component_bfs(phi, eta, max_states=5))
        f = xi_X(consv_basis(phi, base)[0], window, base)
        add(f, is_invariant(f, phi, [eta]), extract_conserved(f, phi),
            h0_h1_finite(phi, path_graph(3)))
    assert set(out) == set(RECORD_CLASSES)
    return out


def test_every_value_class_is_a_record():
    assert len(set(RECORD_CLASSES)) == 16
    assert all(issubclass(cls, Record) for cls in RECORD_CLASSES)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_repr_eq_and_hash_match_the_dataclass(examples, cls):
    recs = examples[cls]
    for a in recs:
        assert repr(a) == repr(twin(a))
        assert hash(a) == hash(twin(a))
        for b in recs:
            assert (a == b) is (twin(a) == twin(b))
            assert (a != b) is (twin(a) != twin(b))
            if a == b:
                assert hash(a) == hash(b)
    assert recs[0] == recs[1] and recs[0] is not recs[1]


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_construction_binds_like_the_dataclass(examples, cls):
    rec = examples[cls][0]
    kwargs = fields_of(rec)
    values = list(kwargs.values())
    assert cls(*values) == rec and cls(**kwargs) == rec
    assert cls(values[0], **{n: kwargs[n] for n in cls._fields[1:]}) == rec
    required = [name for name in cls._fields if name not in cls._defaults]
    bad_calls = [
        ((), {**kwargs, "no_such_field": 1}),   # unknown
        ((values[0],), kwargs),                 # given twice
        ((*values, 0), {}),                     # one positional too many
    ]
    if required:
        bad_calls.append(((), {n: v for n, v in kwargs.items() if n != required[-1]}))
    for args, kw in bad_calls:
        with pytest.raises(TypeError):
            type(twin(rec))(*args, **kw)
        with pytest.raises(TypeError):
            cls(*args, **kw)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(examples, cls):
    rec = examples[cls][0]
    for target in (rec, twin(rec)):
        for name in (*cls._fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(target, name, None)
        with pytest.raises(AttributeError):
            delattr(target, cls._fields[0])
    assert fields_of(rec) == fields_of(examples[cls][1])


def test_replace_validates_again():
    states = builtin_interaction("exclusion").states
    f = LocalFunction.from_entries(states, (0, 1), {(1, 1): 1})
    assert f.replace(table=(0, 0, 0, 2)) == LocalFunction.from_entries(
        states, (0, 1), {(1, 1): 2})
    with pytest.raises(SupportError):
        f.replace(support=(1, 0))
    with pytest.raises(TypeError):
        f.replace(no_such_field=1)


def test_cached_properties_still_cache(examples):
    graph = examples[SiteGraph][0]
    assert graph._adjacency is graph._adjacency
    assert "_adjacency" in vars(graph)
    result = examples[ComponentResult][0]
    assert result.configurations is result.configurations
    phi = examples[Interaction][0]
    assert phi.edge_moves is phi.edge_moves


def test_configuration_hash_skips_graph_and_states_but_equality_does_not():
    two = state_space(["0", "1"], "0")
    three = state_space(["0", "1", "2"], "0")
    small, large = lattice_window(1, -3, 3), lattice_window(1, -4, 4)
    eta = configuration(small, two, 0, {0: 1})
    for other in (configuration(large, two, 0, {0: 1}), configuration(small, three, 0, {0: 1})):
        assert hash(other) == hash(eta)
        assert other != eta and not other == eta
    assert configuration(small, two, 0, {0: 1}) == eta


def test_an_exact_support_function_never_equals_a_local_function(examples):
    class Tagged(LocalFunction):
        """Adds no field, and is still another class."""

    for esf in examples[ExactSupportFunction]:
        plain = LocalFunction(states=esf.states, support=esf.support, table=esf.table)
        assert esf != plain and plain != esf
        assert not esf == plain
        tagged = Tagged(**fields_of(plain))
        assert tagged != plain and plain != tagged


@settings(max_examples=60, deadline=None)
@given(phi=small_interactions(), data=st.data())
def test_configuration_and_local_function_match_the_dataclass(phi, data):
    states, base = phi.states, phi.states.base_index
    window = lattice_window(1, -1, 1)
    for strategy in (window_configurations(window, states, base, max_occupied=2),
                     local_functions(states, max_arity=1, sites=range(2))):
        a = data.draw(strategy)
        b = data.draw(st.one_of(st.just(a.replace()), strategy))
        assert hash(a) == hash(twin(a)) and repr(a) == repr(twin(a))
        assert (a == b) is (twin(a) == twin(b))
        assert (a != b) is (twin(a) != twin(b))
        if a == b:
            assert hash(a) == hash(b)
