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
from latticecalc.interaction import _candidate_supports


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


def reference_template_rows(phi, reach, j, base):
    """``interaction._template_rows`` as it was before its columns were
    numbered and its rows became Möbius components: a generator of the
    configuration rows of the admissible patterns, keyed by (support, entry)
    relative to 0.  At reach 0 the two generators give the same rows."""
    states = range(phi.states.n)
    nonbase = [s for s in states if s != base]

    def columns(config, order, delta):
        sites = [s for s in order if config[s] != base]
        for r in range(1, len(sites) + 1):
            for lam in itertools.combinations(sites, r):
                if lam[-1] - lam[0] <= reach and not delta.isdisjoint(lam):
                    yield lam, tuple(config[s] for s in lam)

    patterns = {
        tuple(s for s in lam if s != 0 and s != j)
        for lam in _candidate_supports(-reach, j + reach, reach)
        if 0 in lam or j in lam
    }
    for sites in sorted(patterns, key=lambda sites: (len(sites), sites)):
        order = sorted((*sites, 0, j))
        for s, t, *values in itertools.product(states, states, *[nonbase] * len(sites)):
            pattern = dict(zip(sites, values))
            pattern[0], pattern[j] = s, t
            for _, _, (c, d) in phi.edge_moves[(s, t)]:
                if (c, d) <= (s, t):
                    continue
                after = {**pattern, 0: c, j: d}
                delta = {site for site, old, new in ((0, s, c), (j, t, d)) if old != new}
                row = dict.fromkeys(columns(after, order, delta), 1)
                row.update(dict.fromkeys(columns(pattern, order, delta), -1))
                yield row


class CountingPivots(dict):
    """Pivot rows that count the lookups finding a row, one per elimination
    step, and those among them whose pivot entry is not 1.  Past ``limit``
    steps a lookup fails, so a loop that stops making progress fails instead
    of hanging."""

    def __init__(self, rows=(), limit=None):
        super().__init__(rows)
        self.hits, self.non_unit, self.limit = 0, 0, limit

    def get(self, col, default=None):
        row = super().get(col, default)
        if row is not None:
            self.hits += 1
            self.non_unit += row[col] != 1
            assert self.limit is None or self.hits <= self.limit, "too many steps"
        return row
