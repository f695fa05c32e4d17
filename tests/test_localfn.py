"""Local functions and their exact-support decomposition.

The oracle here is the inclusion-exclusion formula: the component on a site
set equals the alternating sum of base-filled restrictions over its subsets.
It is computed directly in this file, one component at a time, and compared
against the package's Möbius transform of the whole table.
"""

import itertools
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecalc import errors
from latticecalc.interaction import builtin_interaction, state_space
from latticecalc.localfn import (
    ExactSupportFunction,
    LocalFunction,
    assemble,
    expand,
    is_exact_support,
    restrict,
)

from conftest import local_functions

ST3 = state_space(["0", "1", "2"], base="0")
ST2 = state_space(["0", "1"], base="0")
STATE_SPACES = [state_space([str(i) for i in range(n)], base="0") for n in range(1, 5)]


@st.composite
def functions_and_bases(draw):
    """A local function on 1-4 states, integer or string sites, and a base."""
    states = draw(st.sampled_from(STATE_SPACES))
    sites = draw(st.sampled_from([range(-3, 4), "abcdefg"]))
    f = draw(local_functions(states, sites=sites))
    return f, draw(st.integers(0, states.n - 1))


def mobius_component(f, lam, base):
    """Inclusion-exclusion oracle for the component on site set lam."""
    lam = tuple(sorted(lam))
    positions = {s: f.support.index(s) for s in lam}

    def value(assignment):
        out = Fraction(0)
        for r in range(len(lam) + 1):
            for sub in itertools.combinations(lam, r):
                filled = [base] * f.arity
                for s in sub:
                    filled[positions[s]] = assignment[lam.index(s)]
                sign = (-1) ** (len(lam) - len(sub))
                out += sign * f.value_at(tuple(filled))
        return out

    probe = LocalFunction.zero(f.states, lam)
    table = tuple(value(a) for a in probe.assignments())
    return LocalFunction(states=f.states, support=lam, table=table)


def test_table_order_is_big_endian():
    f = LocalFunction.from_function(ST2, (0, 1), lambda a: 2 * a[0] + a[1])
    assert f.table == (0, 1, 2, 3)
    assert f.value_at((1, 0)) == 2
    assert f.index_of((1, 1)) == 3


def test_from_entries_and_zero():
    f = LocalFunction.from_entries(ST3, (2, 5), {(1, 2): "3/2"})
    assert f.value_at((1, 2)) == Fraction(3, 2)
    assert f.value_at((0, 0)) == 0
    assert LocalFunction.zero(ST3, (1,)).is_zero()
    assert LocalFunction.constant(ST3, 4).value_at(()) == 4


@pytest.mark.parametrize(
    "key",
    [(5,), (1, 2), (-1,), (True,), 1, ()],
    ids=["state", "long", "negative", "bool", "int", "short"],
)
def test_from_entries_refuses_a_key_that_is_not_an_assignment(key):
    with pytest.raises(errors.SchemaError, match="not an assignment"):
        LocalFunction.from_entries(ST3, (0,), {key: 1, (1,): 3})


def test_support_must_be_sorted_and_unique():
    with pytest.raises(errors.SupportError):
        LocalFunction(states=ST2, support=(1, 0), table=(0,) * 4)
    with pytest.raises(errors.SupportError):
        LocalFunction.zero(ST2, (0, 0))
    with pytest.raises(errors.SupportError):
        LocalFunction.zero(ST2, (0, "a"))
    # classmethods normalize the ordering instead of raising
    assert LocalFunction.zero(ST2, (1, 0)).support == (0, 1)


def test_support_cap_enforced(monkeypatch):
    monkeypatch.setenv("LATTICECALC_CAPS", "max_support=2")
    with pytest.raises(errors.CapExceededError):
        LocalFunction.zero(ST2, (0, 1, 2))
    monkeypatch.setenv("LATTICECALC_CAPS", "max_table=8")
    with pytest.raises(errors.CapExceededError):
        LocalFunction.zero(ST3, (0, 1))


@pytest.mark.parametrize("build", [
    lambda support: LocalFunction.from_function(ST2, support, lambda a: 0),
    lambda support: LocalFunction.from_entries(ST2, support, {}),
    lambda support: LocalFunction.zero(ST2, support),
], ids=["from_function", "from_entries", "zero"])
def test_caps_are_checked_before_a_table_is_built(monkeypatch, build):
    monkeypatch.delenv("LATTICECALC_CAPS", raising=False)
    start = time.perf_counter()
    with pytest.raises(errors.CapExceededError, match="^support of 40 sites exceeds cap 12$"):
        build(range(40))
    monkeypatch.setenv("LATTICECALC_CAPS", "max_support=40")
    with pytest.raises(errors.CapExceededError,
                       match=f"^table of {2 ** 40} entries exceeds cap {2 ** 20}$"):
        build(range(40))
    assert time.perf_counter() - start < 1


def test_assemble_refuses_a_support_over_the_cap_before_summing(monkeypatch):
    components = {(0,): LocalFunction.from_entries(ST2, (0,), {(1,): 1})}
    monkeypatch.delenv("LATTICECALC_CAPS", raising=False)
    start = time.perf_counter()
    with pytest.raises(errors.CapExceededError, match="^support of 22 sites exceeds cap 12$"):
        assemble(components, range(22))
    monkeypatch.setenv("LATTICECALC_CAPS", "max_support=22")
    with pytest.raises(errors.CapExceededError,
                       match=f"^table of {2 ** 22} entries exceeds cap {2 ** 20}$"):
        assemble(components, range(22))
    assert time.perf_counter() - start < 2


def test_exact_support_rejects_base_mass():
    with pytest.raises(errors.SupportError):
        ExactSupportFunction(
            states=ST2, support=(0,), table=(Fraction(1), Fraction(1)), base_index=0
        )
    ok = ExactSupportFunction(
        states=ST2, support=(0,), table=(Fraction(0), Fraction(5)), base_index=0
    )
    assert is_exact_support(ok, 0)
    # the empty support has no coordinates, so any constant qualifies
    assert is_exact_support(LocalFunction.constant(ST2, 7), 0)


BUILTINS = ("exclusion", "multispecies:2", "multispecies:3", "two-species-ac", "quastel2")


@pytest.mark.parametrize("name", BUILTINS)
def test_exact_support_from_entries_matches_the_two_step_route(name):
    """At every base, ``ExactSupportFunction.from_entries`` with ``base_index``
    builds what a ``LocalFunction`` from the same entries, re-built as an
    ``ExactSupportFunction`` over its table, is; every entry a ``Fraction``."""
    states = builtin_interaction(name).states
    for base in range(states.n):
        nonbase = [s for s in range(states.n) if s != base]
        for support in [(), (3,), (2, -1), (0, 1, 4)]:
            values = itertools.cycle([1, Fraction(-3, 2), "5/3", 0, -2])
            entries = dict(zip(itertools.product(nonbase, repeat=len(support)), values))
            mine = ExactSupportFunction.from_entries(states, support, entries, base_index=base)
            two_step = LocalFunction.from_entries(states, support, entries)
            assert mine == ExactSupportFunction(
                states=states, support=two_step.support, table=two_step.table,
                base_index=base)
            assert all(type(v) is Fraction for v in mine.table)


@pytest.mark.parametrize("value", [0.5, True, 2.0], ids=["float", "bool", "whole-float"])
@pytest.mark.parametrize("build", [
    lambda v: LocalFunction.from_entries(ST2, (0,), {(1,): v}),
    lambda v: LocalFunction.from_function(ST2, (0,), lambda a: v if a == (1,) else 0),
    lambda v: LocalFunction.constant(ST2, v),
    lambda v: ExactSupportFunction.from_entries(ST2, (0,), {(1,): v}, base_index=0),
], ids=["from_entries", "from_function", "constant", "exact_from_entries"])
def test_every_builder_refuses_an_inexact_entry_alike(build, value):
    with pytest.raises(errors.SchemaError,
                       match=f"^exact rational expected, got {re.escape(repr(value))}$"):
        build(value)


def test_restrict_pins_dropped_sites_to_base():
    f = LocalFunction.from_function(ST2, (0, 1), lambda a: 10 * a[0] + a[1])
    r = restrict(f, (1,), base=0)
    assert r.support == (1,)
    assert r.table == (0, 1)
    full = restrict(f, (0, 1, 7), base=0)
    assert full.support == (0, 1)
    assert full.table == f.table


def test_expand_hand_computed_example():
    f = LocalFunction.from_entries(
        ST3, (0, 1), {(0, 0): 1, (1, 2): Fraction(3, 2), (2, 0): -2}
    )
    comps = expand(f, 0)
    assert set(comps) == {(), (0,), (1,), (0, 1)}
    assert comps[()].value_at(()) == 1
    assert comps[(0,)].table == (0, -1, -3)
    assert comps[(1,)].table == (0, -1, -1)
    pair = comps[(0, 1)]
    assert pair.value_at((1, 1)) == 1
    assert pair.value_at((1, 2)) == Fraction(5, 2)
    assert pair.value_at((2, 1)) == 3
    assert pair.value_at((2, 2)) == 3


@settings(deadline=None, max_examples=150)
@given(functions_and_bases())
def test_expand_matches_inclusion_exclusion(case):
    f, base = case
    comps = expand(f, base)
    expected = []
    for r in range(len(f.support) + 1):
        for lam in itertools.combinations(f.support, r):
            oracle = mobius_component(f, lam, base)
            if not oracle.is_zero():
                expected.append((lam, oracle.table))
    assert [(lam, comp.table) for lam, comp in comps.items()] == expected
    assert all(comp.base_index == base for comp in comps.values())


def test_expand_reads_the_table_polynomially_often(monkeypatch):
    """A deterministic work count: the components of m sites with n states
    are read off in (n+1)**m table reads, so allow 3 * (n+1)**m ``index_of``
    calls.  The former subset induction made 231,973 calls here."""
    calls = 0
    index_of = LocalFunction.index_of

    def counted(self, assignment):
        nonlocal calls
        calls += 1
        return index_of(self, assignment)

    monkeypatch.setattr(LocalFunction, "index_of", counted)
    f = LocalFunction.from_function(ST2, range(8), lambda a: sum(a) ** 3)
    comps = expand(f, 0)
    assert sorted({len(lam) for lam in comps}) == [1, 2, 3]
    assert calls <= 3 * 3 ** 8


@settings(deadline=None, max_examples=80)
@given(local_functions(ST3))
def test_expand_reassembles_and_is_exact(f):
    comps = expand(f, 0)
    assert assemble(comps, f.support, ST3) == f
    for lam, comp in comps.items():
        if lam:
            assert is_exact_support(comp, 0)
            assert not comp.is_zero()


@settings(deadline=None, max_examples=60)
@given(local_functions(ST2))
def test_partial_sums_reproduce_restrictions(f):
    comps = expand(f, 0)
    for r in range(len(f.support) + 1):
        for lam in itertools.combinations(f.support, r):
            partial = {k: v for k, v in comps.items() if set(k) <= set(lam)}
            assert assemble(partial, lam, ST2) == restrict(f, lam, 0)


def test_assemble_validates_containment_and_states():
    c = expand(LocalFunction.from_entries(ST2, (0,), {(1,): 2}), 0)
    with pytest.raises(errors.SupportError):
        assemble(c, (), ST2)
    with pytest.raises(errors.SupportError):
        assemble({(0,): c[(0,)], (1,): c[(0,)]}, (0, 1), ST2)
    assert assemble({}, (0, 1), ST2).is_zero()
    with pytest.raises(errors.SupportError):
        assemble({}, (0,))
