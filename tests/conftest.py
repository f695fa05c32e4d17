import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from latticecalc import (
    ExactSupportFunction,
    LocalFunction,
    builtin_interaction,
    configuration,
    lattice_window,
    linalg,
    make_interaction,
    state_space,
)
from latticecalc.cohomology import _kernel_unknowns


@pytest.fixture(scope="session")
def exclusion():
    return builtin_interaction("exclusion")


@pytest.fixture(scope="session")
def ms2():
    return builtin_interaction("multispecies:2")


@pytest.fixture(scope="session")
def annihilation():
    return builtin_interaction("two-species-ac")


@pytest.fixture(scope="session")
def quastel():
    return builtin_interaction("quastel2")


@pytest.fixture(scope="session")
def window13():
    return lattice_window(1, -6, 6)


def small_fractions():
    return st.fractions(min_value=-8, max_value=8, max_denominator=6)


def tables_for(n_states: int, arity: int):
    return st.lists(
        small_fractions(),
        min_size=n_states**arity,
        max_size=n_states**arity,
    ).map(tuple)


@st.composite
def local_functions(draw, states, max_arity=3, sites=range(-3, 4)):
    arity = draw(st.integers(min_value=0, max_value=max_arity))
    support = tuple(sorted(draw(
        st.sets(st.sampled_from(list(sites)), min_size=arity, max_size=arity)
    )))
    table = draw(tables_for(states.n, arity))
    return LocalFunction(states=states, support=support, table=table)


@st.composite
def exact_support_functions(draw, states, base, max_arity=2, sites=range(-4, 5)):
    arity = draw(st.integers(min_value=1, max_value=max_arity))
    support = tuple(sorted(draw(
        st.sets(st.sampled_from(list(sites)), min_size=arity, max_size=arity)
    )))
    probe = LocalFunction.zero(states, support)
    table = list(draw(tables_for(states.n, arity)))
    for assignment in probe.assignments():
        if base in assignment:
            table[probe.index_of(assignment)] = Fraction(0)
    return ExactSupportFunction(
        states=states, support=support, table=tuple(table), base_index=base
    )


@st.composite
def small_interactions(draw):
    n = draw(st.integers(2, 3))
    pairs = list(itertools.product(range(n), repeat=2))
    edges = draw(st.sets(st.tuples(st.sampled_from(pairs), st.sampled_from(pairs)),
                         max_size=6))
    base = draw(st.integers(0, n - 1))
    return make_interaction(state_space([str(i) for i in range(n)], str(base)), edges)


@st.composite
def window_configurations(draw, graph, states, base, max_occupied=4):
    nonbase = [s for s in range(states.n) if s != base]
    count = draw(st.integers(min_value=0, max_value=max_occupied))
    sites = draw(
        st.sets(st.sampled_from(list(graph.vertices)), min_size=count, max_size=count)
    )
    table = {x: draw(st.sampled_from(nonbase)) for x in sites}
    return configuration(graph, states, base, table)


def random_configuration(rng: random.Random, graph, states, base, max_occupied=4):
    nonbase = [s for s in range(states.n) if s != base]
    count = rng.randint(0, max_occupied)
    sites = rng.sample(list(graph.vertices), count)
    return configuration(
        graph, states, base, {x: rng.choice(nonbase) for x in sites}
    )


def add_pair_component_to_kernel_basis(monkeypatch, graph, pair):
    """Make the kernel's basis step (``linalg.rref_basis`` over the inner
    columns, called by ``linalg.nullspace_of`` on the inner pivot rows) add 1
    at entry (1, 1) of the exclusion component on ``pair`` to the first basis
    vector of an R=1 exclusion kernel on ``graph``."""
    (a, b), original = graph.window, linalg.rref_basis
    inner = [
        key
        for key in _kernel_unknowns(builtin_interaction("exclusion"), 1, graph, 0)
        if a + 1 <= key[0][0] and key[0][-1] <= b - 1
    ]
    col = inner.index((pair, (1, 1)))

    def tampered(rows, ncols):
        out = original(rows, ncols)
        if ncols == len(inner):
            out[0] = tuple(v + (c == col) for c, v in enumerate(out[0]))
        return out

    monkeypatch.setattr(linalg, "rref_basis", tampered)
