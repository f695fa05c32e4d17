"""Finite cochain dimensions, conserved-sum extraction, windowed kernels.

Dimensions are never trusted to a single code path: the finite enumeration
is rebuilt from the raw interaction definition and checked through networkx
components and sympy ranks, and the kernel's elimination is replayed through
sympy on the very same constraint rows.
"""

import itertools
import time
from fractions import Fraction

import networkx as nx
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticecalc import cohomology, errors, linalg
from latticecalc.cohomology import (
    CONSERVED,
    NONZERO_MULTI_SITE,
    NOT_CONSERVED_PAIR,
    UNEQUAL_SINGLE_SITE,
    CochainSpaceSummary,
    KernelReport,
    _candidate_supports,
    _inner_window,
    _kernel_rows,
    _kernel_unknowns,
    extract_conserved,
    h0_h1_finite,
    invariance_kernel,
)
from latticecalc.interaction import (
    _template_rows,
    builtin_interaction,
    consv_basis,
    is_exchangeable,
    make_interaction,
    state_space,
)
from latticecalc.localfn import ExactSupportFunction
from latticecalc.sitegraph import (
    cycle_graph,
    diameter_of,
    explicit_graph,
    lattice_window,
    path_graph,
)
from latticecalc.transitions import ConfigCode, neighbors
from latticecalc.uniform import (
    configuration,
    difference,
    explicit_uniform,
    families_equal,
    family_items,
    family_map,
    rebase,
    xi_X,
)

from conftest import (
    CountingPivots,
    add_pair_component_to_kernel_basis,
    padded,
    small_interactions,
)

EXCLUSION = builtin_interaction("exclusion")
MS2 = builtin_interaction("multispecies:2")
AC = builtin_interaction("two-species-ac")


def enumerate_transition_pairs(phi, graph):
    """Oracle edge set built straight from the interaction definition: every
    interaction edge fires at every directed graph edge (x, y)."""
    verts = list(graph.vertices)
    pairs = set()
    for config in itertools.product(range(phi.states.n), repeat=len(verts)):
        for x, y in sorted(graph.edges):
            ix, iy = verts.index(x), verts.index(y)
            for (a, b), (c, d) in phi.edges:
                if (config[ix], config[iy]) == (a, b):
                    after = list(config)
                    after[ix], after[iy] = c, d
                    after = tuple(after)
                    if after != config:
                        pairs.add(tuple(sorted((config, after))))
    return pairs


def oracle_summary(phi, graph):
    pairs = enumerate_transition_pairs(phi, graph)
    nodes = list(itertools.product(range(phi.states.n), repeat=len(graph.vertices)))
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(pairs)
    index = {node: i for i, node in enumerate(nodes)}
    rows = [
        {index[u]: -1, index[v]: 1} for u, v in sorted(pairs)
    ]
    mat = sympy.Matrix(
        [[row.get(c, 0) for c in range(len(nodes))] for row in rows]
    ) if rows else sympy.zeros(0, len(nodes))
    rank = mat.rank()
    return {
        "dim_c0": len(nodes),
        "dim_c1": len(pairs),
        "rank": rank,
        "h0": nx.number_connected_components(g),
        "h1": len(pairs) - rank,
    }


@pytest.mark.parametrize(
    "phi,graph",
    [
        (EXCLUSION, path_graph(2)),
        (EXCLUSION, path_graph(3)),
        (EXCLUSION, path_graph(4)),
        (AC, path_graph(2)),
        (MS2, path_graph(2)),
    ],
    ids=["excl-p2", "excl-p3", "excl-p4", "ac-p2", "ms2-p2"],
)
def test_finite_summary_matches_oracle(phi, graph):
    s = h0_h1_finite(phi, graph)
    want = oracle_summary(phi, graph)
    assert s.dim_c0 == want["dim_c0"]
    assert s.dim_c1 == want["dim_c1"]
    assert s.rank_d == want["rank"]
    assert s.h0 == want["h0"]
    assert s.h1 == want["h1"]


def test_annihilation_path2_frozen_values():
    s = h0_h1_finite(AC, path_graph(2))
    assert (s.dim_c0, s.dim_c1, s.rank_d, s.h0, s.h1) == (9, 5, 4, 5, 1)


def test_summary_computes_h0_and_h1_by_rank_nullity():
    with pytest.raises(TypeError):
        CochainSpaceSummary(dim_c0=4, dim_c1=2, rank_d=1, h0=2, h1=1)
    s = CochainSpaceSummary(dim_c0=4, dim_c1=2, rank_d=1)
    assert (s.h0, s.h1) == (3, 1)


def test_enumeration_cap():
    with pytest.raises(errors.CapExceededError):
        h0_h1_finite(builtin_interaction("multispecies:3"), path_graph(12))


def test_h0_counts_its_configurations_before_it_encodes_them(monkeypatch):
    def refuse(*args):
        raise AssertionError("ConfigCode built before the cap check")

    monkeypatch.delenv("LATTICECALC_CAPS", raising=False)
    monkeypatch.setattr(cohomology, "ConfigCode", refuse)
    with pytest.raises(errors.CapExceededError,
                       match="^1073741824 configurations exceed cap 1048576$"):
        h0_h1_finite(builtin_interaction("exclusion"), path_graph(30))


@pytest.mark.parametrize("name", ["exclusion", "multispecies:2", "two-species-ac"])
@pytest.mark.parametrize("k,radius,window", [(1, 0, (-2, 2)), (1, 1, (-4, 4)),
                                             (2, 1, (-5, 6)), (1, 2, (-6, 7))])
def test_the_unknowns_cap_counts_exactly_the_listed_unknowns(monkeypatch, name, k,
                                                             radius, window):
    """The closed-form count checked before listing is the length of the list."""
    phi, graph = builtin_interaction(name), lattice_window(k, *window)
    monkeypatch.delenv("LATTICECALC_CAPS", raising=False)
    count = len(_kernel_unknowns(phi, radius, graph, 0))
    monkeypatch.setenv("LATTICECALC_CAPS", f"max_unknowns={count}")
    assert len(_kernel_unknowns(phi, radius, graph, 0)) == count
    monkeypatch.setenv("LATTICECALC_CAPS", f"max_unknowns={count - 1}")
    with pytest.raises(errors.CapExceededError, match=f"^{count} unknowns exceed cap {count - 1}$"):
        _kernel_unknowns(phi, radius, graph, 0)


# elimination steps h0 takes on 6 sites: (path, cycle)
H0_STEPS = {
    "exclusion": (98, 125),
    "multispecies:2": (1694, 2155),
    "multispecies:3": (11208, 14200),
    "two-species-ac": (3314, 4104),
    "quastel2": (956, 1257),
}


@pytest.mark.parametrize("name", list(H0_STEPS))
@pytest.mark.parametrize("make_graph", [path_graph, cycle_graph], ids=["path", "cycle"])
def test_h0_eliminates_each_pair_in_at_most_two_steps(monkeypatch, name, make_graph):
    """Star-ordered columns keep every pivot row {v, root of v}; a return of
    fill chains shows as more elimination steps or wider pivot rows."""
    phi, graph = builtin_interaction(name), make_graph(6)
    reducers, columns = set(), set()
    add = linalg.RowReducer.add

    def recording(self, row):
        if self not in reducers:
            reducers.add(self)
            self.pivot_rows = CountingPivots(self.pivot_rows)
        columns.update(row)
        return add(self, row)

    monkeypatch.setattr(linalg.RowReducer, "add", recording)
    s = h0_h1_finite(phi, graph)
    (reducer,) = reducers
    steps = reducer.pivot_rows.hits
    assert 0 < steps <= 2 * s.dim_c1
    assert steps == H0_STEPS[name][make_graph is cycle_graph]
    rows = reducer.pivot_rows
    assert all(len(row) == 2 for row in rows.values())
    # non-roots pivot on 0..rank-1; each star row ends in a root column
    assert set(rows) == set(range(s.rank_d))
    assert all(s.rank_d <= max(row) < s.dim_c0 for row in rows.values())
    # the columns fed are range(size) less the isolated configurations
    codes = ConfigCode(phi, graph)
    moving = {c for c in range(codes.size) if any(w != c for *_, w in codes.fire(c))}
    assert len(columns) == len(moving) and columns <= set(range(s.dim_c0))


# ---------------------------------------------------------------------------
# extraction


@pytest.mark.parametrize("name", ["exclusion", "multispecies:2", "multispecies:3",
                                  "two-species-ac"])
def test_extract_recovers_every_basis_quantity(name):
    phi = builtin_interaction(name)
    base = phi.states.base_index
    g = lattice_window(1, -6, 6)
    for xi in consv_basis(phi, base):
        f = xi_X(xi, g, base)
        res = extract_conserved(f, phi)
        assert res.outcome == CONSERVED
        assert res.xi.values == xi.values
        assert families_equal(f, xi_X(res.xi, g, base))


def single_site_component(states, site, table, base):
    return ExactSupportFunction(
        states=states, support=(site,), table=tuple(Fraction(v) for v in table),
        base_index=base,
    )


def test_extract_flags_unequal_single_site():
    g = lattice_window(1, -2, 2)
    comps = {
        (x,): single_site_component(EXCLUSION.states, x, (0, 1), 0)
        for x in g.vertices
    }
    comps[(2,)] = single_site_component(EXCLUSION.states, 2, (0, 5), 0)
    f = explicit_uniform(EXCLUSION.states, g, 0, 0, comps)
    res = extract_conserved(f, EXCLUSION)
    assert res.outcome == UNEQUAL_SINGLE_SITE
    assert res.witness == (-2, 2)


def test_extract_flags_nonzero_multi_site():
    g = lattice_window(1, -2, 2)
    (xi,) = consv_basis(EXCLUSION, 0)
    comps = dict(family_map(xi_X(xi, g, 0)))
    pair = ExactSupportFunction(
        states=EXCLUSION.states, support=(0, 1),
        table=(Fraction(0), Fraction(0), Fraction(0), Fraction(2)), base_index=0,
    )
    comps[(0, 1)] = pair
    f = explicit_uniform(EXCLUSION.states, g, 0, 1, comps)
    res = extract_conserved(f, EXCLUSION)
    assert res.outcome == NONZERO_MULTI_SITE
    assert res.witness == (0, 1)


def test_extract_flags_pair_sum_violation():
    g = lattice_window(1, -2, 2)
    comps = {
        (x,): single_site_component(AC.states, x, (1, 0, 1), 1)
        for x in g.vertices
    }
    f = explicit_uniform(AC.states, g, 1, 0, comps)
    res = extract_conserved(f, AC)
    assert res.outcome == NOT_CONSERVED_PAIR
    (a, b), (c, d) = res.witness
    labels = AC.states.labels
    table = {"-1": 1, "0": 0, "1": 1}
    assert table[labels[a]] + table[labels[b]] != table[labels[c]] + table[labels[d]]


def test_extract_requires_vanishing_constant():
    g = lattice_window(1, -2, 2)
    const = ExactSupportFunction(
        states=EXCLUSION.states, support=(), table=(Fraction(1),), base_index=0
    )
    f = explicit_uniform(EXCLUSION.states, g, 0, 0, {(): const})
    with pytest.raises(errors.NormalizationError):
        extract_conserved(f, EXCLUSION)


def test_extract_requires_matching_states():
    g = lattice_window(1, -2, 2)
    (xi,) = consv_basis(EXCLUSION, 0)
    f = xi_X(xi, g, 0)
    with pytest.raises(errors.MismatchError):
        extract_conserved(f, MS2)


# ---------------------------------------------------------------------------
# windowed invariance kernel


def test_candidate_supports_agree_with_graph_diameter():
    for k, radius in [(1, 1), (1, 2), (2, 1), (3, 1)]:
        g = lattice_window(k, -4, 4)
        mine = set(_candidate_supports(*g.window, k * radius))
        verts = list(g.vertices)
        all_sets = set()
        for r in range(1, k * radius + 2):
            for combo in itertools.combinations(verts, r):
                if diameter_of(g, combo) <= radius:
                    all_sets.add(combo)
        assert mine == all_sets, (k, radius)


def test_kernel_window_must_cover_the_radius():
    with pytest.raises(errors.WindowTooSmallError):
        invariance_kernel(EXCLUSION, 1, lattice_window(1, -3, 4), 0)
    # long enough for R=2, but k·R = 6 leaves the inner window [0, 0]
    with pytest.raises(errors.WindowTooSmallError, match="no edge"):
        invariance_kernel(AC, 2, lattice_window(3, -6, 6), 0)
    with pytest.raises(errors.SchemaError):
        invariance_kernel(EXCLUSION, 1, path_graph(9), 0)


@pytest.mark.parametrize("radius", [True, 1.0], ids=["bool", "float"])
def test_kernel_radius_must_be_an_int(radius):
    with pytest.raises(errors.SchemaError, match="radius"):
        invariance_kernel(EXCLUSION, radius, lattice_window(1, -4, 4), 0)


def test_exclusion_kernel_is_the_particle_count():
    g = lattice_window(1, -4, 4)
    rep = invariance_kernel(EXCLUSION, 1, g, 0)
    assert rep.dimension == 1
    assert rep.inner_window == (-3, 3)
    (f,) = rep.basis
    fam = family_map(f)
    assert set(fam) == {(x,) for x in range(-3, 4)}
    for comp in fam.values():
        assert comp.table == (Fraction(0), Fraction(1))


def test_kernel_elimination_matches_sympy():
    g = lattice_window(1, -4, 4)
    unknowns = _kernel_unknowns(EXCLUSION, 1, g, 0)
    uid, _ = kernel_index(unknowns)
    rows = list(_kernel_rows(EXCLUSION, 1, g, 0, uid))
    mat = sympy.Matrix(
        [[row.get(c, 0) for c in range(len(unknowns))] for row in rows]
    )
    rep = invariance_kernel(EXCLUSION, 1, g, 0)
    assert rep.unknown_count == len(unknowns)
    assert rep.constraint_rank == mat.rank()
    assert len(unknowns) - mat.rank() >= rep.dimension


def inner_transitions(phi, probes, lo, hi):
    """Transitions out of the probes fired at edges inside [lo, hi]."""
    return [
        tr
        for eta in probes
        for tr in neighbors(phi, eta)
        if lo <= min(tr.edge) and max(tr.edge) <= hi
    ]


def reference_probe_check(phi, report, graph, base):
    """The check ``latticecalc kernel`` ran before its exact certificate: each
    basis function is invariant along every transition at an inner edge out
    of a configuration with at most one non-base site in the inner window."""
    lo, hi = report.inner_window
    probes = [configuration(graph, phi.states, base, {})]
    for site in range(lo, hi + 1):
        for state in range(phi.states.n):
            if state != base:
                probes.append(configuration(graph, phi.states, base, {site: state}))
    return all(
        difference(f, tr.before, tr.after) == 0
        for f in report.basis
        for tr in inner_transitions(phi, probes, lo, hi)
    )


def test_kernel_dimensions_for_multispecies():
    g = lattice_window(1, -4, 4)
    rep = invariance_kernel(MS2, 1, g, 0)
    assert rep.dimension == 2
    probes = [configuration(g, MS2.states, 0, {})]
    lo, hi = rep.inner_window
    for site in range(lo, hi + 1):
        for state in (1, 2):
            probes.append(configuration(g, MS2.states, 0, {site: state}))
        for state in (1, 2):
            probes.append(
                configuration(g, MS2.states, 0, {site: state, lo: 2 if site != lo else 1})
            )
    for f in rep.basis:
        assert all(
            difference(f, tr.before, tr.after) == 0
            for tr in inner_transitions(MS2, probes, lo, hi)
        )


def test_kernel_contains_every_conserved_sum():
    """Span membership: each conserved quantity solves the window system."""
    g = lattice_window(1, -4, 4)
    unknowns = _kernel_unknowns(AC, 1, g, 1)
    uid, _ = kernel_index(unknowns)
    rows = list(_kernel_rows(AC, 1, g, 1, uid))
    for xi in consv_basis(AC, 1):
        vec = [Fraction(0)] * len(unknowns)
        for i, (lam, entry) in enumerate(unknowns):
            if len(lam) == 1:
                vec[i] = xi.values[entry[0]]
        for row in rows:
            assert sum(coef * vec[c] for c, coef in row.items()) == 0


# The benchmark's kernel windows and their row counts, 902 in all: one row
# per unordered move, half of the 1,804 that also fired each move's reverse.
BENCHMARK_KERNEL_ROWS = [
    ("exclusion", 1, (-8, 8), "0", 42),
    ("multispecies:2", 1, (-6, 6), "0", 150),
    ("two-species-ac", 1, (-6, 6), "0", 250),
    ("two-species-ac", 1, (-6, 6), "-1", 250),
    ("quastel2", 1, (-8, 8), "0", 140),
    ("exclusion", 2, (-7, 7), "0", 70),
]


@pytest.mark.parametrize(
    "name,radius,window,base_label,count",
    BENCHMARK_KERNEL_ROWS,
    ids=["excl", "ms2", "ac", "ac-base-1", "quastel2", "excl-r2"],
)
def test_kernel_row_count_on_a_benchmark_window(name, radius, window, base_label, count):
    phi, g = builtin_interaction(name), lattice_window(1, *window)
    base = phi.states.index(base_label)
    uid, _ = kernel_index(_kernel_unknowns(phi, radius, g, base))
    assert sum(1 for _ in _kernel_rows(phi, radius, g, base, uid)) == count


def test_kernel_rows_come_from_the_window_offsets_only(monkeypatch):
    """A range far past a 13-site window builds templates for its 12 offsets,
    and its kernel is the one at k = 12."""
    offsets, template_rows = [], cohomology._template_rows

    def counted(phi, reach, j, base):
        offsets.append(j)
        return template_rows(phi, reach, j, base)

    monkeypatch.setattr(cohomology, "_template_rows", counted)
    start = time.perf_counter()
    wide = invariance_kernel(EXCLUSION, 0, lattice_window(10 ** 11, -6, 6), 0)
    assert time.perf_counter() - start < 2
    assert offsets == list(range(1, 13))
    twelve = invariance_kernel(EXCLUSION, 0, lattice_window(12, -6, 6), 0)
    assert [fn.components for fn in wide.basis] == [fn.components for fn in twelve.basis]
    assert (wide.unknown_count, wide.constraint_rank, wide.dimension) == (
        twelve.unknown_count, twelve.constraint_rank, twelve.dimension)


def test_kernel_for_the_nonexchangeable_variant_runs():
    q = builtin_interaction("quastel2")
    rep = invariance_kernel(q, 1, lattice_window(1, -4, 4), 0)
    # the two species cannot pass each other here, yet the transition rows
    # still cut the space down to the two species counts on this window
    assert rep.dimension == 2


# ---------------------------------------------------------------------------
# the two sides of the theorem at radius 0: the window kernel is ξ_X of consv


def assert_radius_zero_kernel_is_consv(phi, graph, base):
    """The R = 0 kernel's basis is the singleton family ``xi_X`` of each
    ``consv_basis`` vector, in order."""
    kernel = invariance_kernel(phi, 0, graph, base).basis
    sums = [xi_X(xi, graph, base) for xi in consv_basis(phi, base)]
    assert len(kernel) == len(sums)
    for f, g in zip(kernel, sums):
        assert families_equal(f, g)


@pytest.mark.parametrize(
    "name", ["exclusion", "multispecies:2", "multispecies:3", "two-species-ac", "quastel2"]
)
def test_radius_zero_kernel_is_consv_for_every_builtin_and_base(name):
    phi = builtin_interaction(name)
    for base in range(phi.states.n):
        assert_radius_zero_kernel_is_consv(phi, lattice_window(1, -4, 4), base)


@st.composite
def exchangeable_interactions(draw):
    """2–4 states; each flip (a, b) -> (b, a) is either a swap move or two
    moves through a drawn pair, then up to four arbitrary moves.  Uniform
    sampling almost never gives an exchangeable interaction."""
    n = draw(st.integers(2, 4))
    pairs = list(itertools.product(range(n), repeat=2))
    moves = []
    for a, b in itertools.combinations(range(n), 2):
        via = draw(st.none() | st.sampled_from(pairs))
        moves += [((a, b), (b, a))] if via is None else [((a, b), via), (via, (b, a))]
    moves += draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(pairs)),
                           max_size=4))
    base = draw(st.integers(0, n - 1))
    return make_interaction(state_space([str(i) for i in range(n)], str(base)), moves)


@settings(max_examples=60, deadline=None)
@given(phi=exchangeable_interactions())
def test_radius_zero_kernel_is_consv_for_generated_exchangeable_interactions(phi):
    assert is_exchangeable(phi)
    for base in range(phi.states.n):
        assert_radius_zero_kernel_is_consv(phi, lattice_window(1, -4, 4), base)


@pytest.mark.parametrize("window", [(-4, 4), (-5, 5)])
def test_radius_zero_kernel_of_pair_creation_is_staggered(window):
    """(0,0) <-> (1,1) is not exchangeable: no conserved quantity, but on a
    window the site values may alternate in sign."""
    phi = make_interaction(state_space(["0", "1"], "0"), [((0, 0), (1, 1))])
    assert not is_exchangeable(phi)
    assert consv_basis(phi, 0) == []
    graph = lattice_window(1, *window)
    (f,) = invariance_kernel(phi, 0, graph, 0).basis
    a, b = window
    assert {key: comp.table for key, comp in family_items(f)} == {
        (x,): (0, (-1) ** (b - x)) for x in range(a, b + 1)}


# ---------------------------------------------------------------------------
# references: rows of every configuration, and exchange rows


def kernel_index(unknowns):
    """Column of each unknown, and the supports through each site in order:
    the index the reference rows scan, independent of the kernel's own rule."""
    uid = {key: i for i, key in enumerate(unknowns)}
    by_site = {}
    for lam in dict.fromkeys(lam for lam, _ in unknowns):
        for s in lam:
            by_site.setdefault(s, []).append(lam)
    return uid, by_site


def _patterns(region, nonbase, bound):
    """Assignments {site -> nonbase state} on <= bound sites of the region."""
    region = sorted(region)
    for r in range(min(bound, len(region)) + 1):
        for sites in itertools.combinations(region, r):
            for values in itertools.product(nonbase, repeat=r):
                yield dict(zip(sites, values))


def reference_kernel_rows(phi, radius, graph, base, probe_bound, uid, by_site):
    """Rows of each transition at an inner edge out of each pattern with at
    most ``probe_bound`` non-base sites near the edge: the kernel's generator
    before it enumerated admissible patterns.

    A row reads the configuration only within k*R of the fired edge, so with
    the bound at the number of window sites these are the rows of every
    configuration.  When the configuration after a move is listed too, the
    move back from it has the negated row, so the pair gives one row: that of
    the move to the larger pair (c, d).
    """
    a, b = graph.window
    reach = graph.k * radius
    lo, hi = a + reach, b - reach
    nonbase = [s for s in range(phi.states.n) if s != base]

    def region_around(x, y):
        return [
            s
            for s in range(min(x, y) - reach, max(x, y) + reach + 1)
            if a <= s <= b and (abs(s - x) <= reach or abs(s - y) <= reach)
        ]

    supports = {}  # the candidate supports meeting each set of changed sites
    seen = {}  # the columns of each (delta, non-base part of a configuration)

    def columns(config, delta):
        """Columns (λ, config|λ) of the candidate λ meeting ``delta`` that hold
        no base state in ``config``: a move's row is +1 at those of the
        configuration after it and −1 at those of the one before.  No two
        share a column, since a λ meeting ``delta`` reads differently there."""
        nonbase_part = {s: v for s, v in config.items() if v != base}
        key = delta, frozenset(nonbase_part.items())
        if key not in seen:
            if delta not in supports:
                supports[delta] = {lam for d in delta for lam in by_site.get(d, ())}
            seen[key] = [uid[lam, tuple(map(nonbase_part.__getitem__, lam))]
                         for lam in filter(set(nonbase_part).issuperset, supports[delta])]
        return seen[key]

    for x, y in graph.unordered_edges():
        if not (lo <= x and y <= hi):
            continue
        seen.clear()  # bounds its size; the columns depend on the key alone
        region = region_around(x, y)
        for pattern in _patterns(region, nonbase, probe_bound):
            s, t = pattern.get(x, base), pattern.get(y, base)
            for _, _, (c, d) in phi.edge_moves[(s, t)]:
                if (c, d) == (s, t):
                    continue
                after = {**pattern, x: c, y: d}
                if (c, d) < (s, t) and sum(v != base for v in after.values()) <= probe_bound:
                    continue  # the negated row of the move back, fired from ``after``
                delta = tuple(site for site, old, new in ((x, s, c), (y, t, d)) if old != new)
                row = dict.fromkeys(columns(after, delta), 1)
                row.update(dict.fromkeys(columns(pattern, delta), -1))
                if row:
                    yield row


def reference_exchange_rows(phi, radius, graph, base, probe_bound, uid, by_site):
    """Rows of f(P^{xy}) - f(P) for inner sites x < y and local patterns P.

    This is the exchange-closure family the kernel no longer generates; it
    stays here as the reference the transition rows must span.
    """
    a, b = graph.window
    reach = graph.k * radius
    lo, hi = a + reach, b - reach
    nonbase = [s for s in range(phi.states.n) if s != base]
    inner = [s for s in graph.vertices if lo <= s <= hi]
    for x, y in itertools.combinations(inner, 2):
        region = [
            s for s in graph.vertices if abs(s - x) <= reach or abs(s - y) <= reach
        ]
        lams = {lam for s in (x, y) for lam in by_site.get(s, ())}
        for before in _patterns(region, nonbase, probe_bound):
            after = {**before, x: before.get(y, base), y: before.get(x, base)}
            row = {}
            for lam in lams:
                for pattern, sign in ((after, 1), (before, -1)):
                    entry = tuple(pattern.get(s, base) for s in lam)
                    if base not in entry:
                        col = uid[(lam, entry)]
                        row[col] = row.get(col, 0) + sign
            row = {c: v for c, v in row.items() if v}
            if row:
                yield row


def assert_exchange_rows_add_no_rank(phi, graph, base, probe_bound):
    unknowns = _kernel_unknowns(phi, 1, graph, base)
    uid, by_site = kernel_index(unknowns)
    reducer = linalg.echelon(_kernel_rows(phi, 1, graph, base, uid))
    rank = reducer.rank
    for row in reference_exchange_rows(phi, 1, graph, base, probe_bound, uid, by_site):
        reducer.add(row)
    assert reducer.rank == rank
    return rank


@pytest.mark.parametrize("probe_bound", [1, 2, 4], ids=["p1", "p2", "default"])
@pytest.mark.parametrize(
    "name,base_label,window",
    [
        ("exclusion", "0", (-5, 5)),
        ("multispecies:2", "0", (-5, 5)),
        ("two-species-ac", "0", (-5, 5)),
        ("two-species-ac", "-1", (-5, 5)),
        ("multispecies:3", "0", (-4, 4)),
    ],
    ids=["excl", "ms2", "ac", "ac-base-1", "ms3"],
)
def test_exchange_rows_lie_in_the_transition_span(name, base_label, window, probe_bound):
    phi = builtin_interaction(name)
    g = lattice_window(1, *window)
    assert_exchange_rows_add_no_rank(phi, g, phi.states.index(base_label), probe_bound)


def _four_state_detour():
    """(0,1) reaches (1,0) only through pairs with two non-base states."""
    states = state_space(["0", "1", "2", "3"], base="0")
    route = [(1, 0), (3, 3), (3, 1), (0, 1)]
    edges = set(zip(route, route[1:]))
    for a, b in itertools.combinations(range(4), 2):
        if (a, b) != (0, 1):
            edges.add(((a, b), (b, a)))
    return make_interaction(states, edges)


@st.composite
def exchangeable_interactions(draw):
    """Each flip (a, b) -> (b, a) is joined by a route through drawn pairs,
    which may carry more non-base states than the pair being swapped."""
    n = draw(st.integers(2, 4))
    pairs = list(itertools.product(range(n), repeat=2))
    edges = set()
    for a, b in itertools.combinations(range(n), 2):
        via = draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True))
        route = [(a, b), *via, (b, a)]
        edges.update(zip(route, route[1:]))
    edges.update(draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(pairs)),
                               max_size=3)))
    states = state_space([str(i) for i in range(n)], base="0")
    return make_interaction(states, {(p, q) for p, q in edges if p != q})


def _heavier_swap_route():
    """(0,3) reaches (3,0) only through (1,2) and (1,3), one non-base state
    heavier: see ``test_heavier_swap_route_needs_no_lift``."""
    states = state_space(["0", "1", "2", "3"], base="0")
    swaps = [((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 2), (2, 1)), ((1, 3), (3, 1)),
             ((2, 3), (3, 2))]
    route = [((0, 3), (1, 2)), ((1, 2), (1, 3)), ((1, 3), (3, 0))]
    return make_interaction(states, swaps + route)


@settings(max_examples=15, deadline=None)
@given(phi=exchangeable_interactions(), probe_bound=st.integers(1, 3))
@example(phi=_four_state_detour(), probe_bound=1)
@example(phi=_four_state_detour(), probe_bound=3)
@example(phi=_heavier_swap_route(), probe_bound=1)
def test_exchange_rows_add_no_rank_for_generated_interactions(phi, probe_bound):
    assert is_exchangeable(phi)
    assert_exchange_rows_add_no_rank(phi, lattice_window(1, -4, 4), 0, probe_bound)


def test_heavier_swap_route_needs_no_lift():
    """On [-4, 4], the rows of patterns with at most one non-base site have
    rank 36 and exchange rows raise it to 42.  The admissible rows have rank
    92, the rank of the rows of every configuration, and exchange rows add
    nothing."""
    phi, g = _heavier_swap_route(), lattice_window(1, -4, 4)
    uid, by_site = kernel_index(_kernel_unknowns(phi, 1, g, 0))
    bounded = linalg.echelon(reference_kernel_rows(phi, 1, g, 0, 1, uid, by_site))
    assert bounded.rank == 36
    for row in reference_exchange_rows(phi, 1, g, 0, 1, uid, by_site):
        bounded.add(row)
    assert bounded.rank == 42
    assert assert_exchange_rows_add_no_rank(phi, g, 0, 1) == 92
    assert assert_admissible_rows_span_every_configuration(phi, 1, g, 0) == 92


# ---------------------------------------------------------------------------
# the kernel certifies its basis against every constraint row


@pytest.mark.parametrize(
    "name", ["exclusion", "multispecies:2", "multispecies:3", "two-species-ac", "quastel2"]
)
def test_kernel_certificate_holds_for_every_builtin_and_base(name):
    phi = builtin_interaction(name)
    g = lattice_window(1, -5, 5)
    for base in range(phi.states.n):
        report = invariance_kernel(phi, 1, g, base)
        assert reference_probe_check(phi, report, g, base)


@settings(max_examples=40, deadline=None)
@given(phi=small_interactions(), radius=st.integers(0, 1))
def test_kernel_certificate_holds_for_generated_interactions(phi, radius):
    g = lattice_window(1, -5, 5)
    base = phi.states.base_index
    report = invariance_kernel(phi, radius, g, base)
    assert reference_probe_check(phi, report, g, base)


FINITE_GRAPHS = [
    path_graph(2), path_graph(3), path_graph(4), cycle_graph(3), cycle_graph(4),
    explicit_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]),
]


@settings(max_examples=60, deadline=None)
@given(phi=small_interactions(), graph=st.sampled_from(FINITE_GRAPHS))
def test_finite_summary_matches_oracle_on_generated_interactions(phi, graph):
    s = h0_h1_finite(phi, graph)
    want = oracle_summary(phi, graph)
    assert (s.dim_c0, s.dim_c1, s.rank_d, s.h0, s.h1) == (
        want["dim_c0"], want["dim_c1"], want["rank"], want["h0"], want["h1"]
    )


def test_certificate_rejects_a_basis_the_probes_accept(monkeypatch):
    """A pair component at (1, 1) changes only when a particle hops next to
    another, which no probe with one particle shows, but a row does."""
    g = lattice_window(1, -5, 5)
    honest = invariance_kernel(EXCLUSION, 1, g, 0)
    add_pair_component_to_kernel_basis(monkeypatch, g, (0, 1))
    with pytest.raises(errors.VerificationError):
        invariance_kernel(EXCLUSION, 1, g, 0)
    monkeypatch.setattr(cohomology, "_certify_basis", lambda *args: None)
    tampered = invariance_kernel(EXCLUSION, 1, g, 0)
    assert (0, 1) in family_map(tampered.basis[0])
    assert (0, 1) not in family_map(honest.basis[0])
    assert reference_probe_check(EXCLUSION, tampered, g, 0)


CERTIFIED_KERNELS = [
    ("exclusion", 1, 1, (-5, 5), 0),
    ("two-species-ac", 1, 1, (-5, 5), 1),
    ("multispecies:2", 2, 1, (-8, 8), 0),
]


@pytest.mark.parametrize(
    "name,k,radius,window,base", CERTIFIED_KERNELS,
    ids=[f"{n}-k{k}r{r}-base{b}" for n, k, r, _, b in CERTIFIED_KERNELS],
)
def test_certificate_rejects_a_step_off_the_kernel_at_every_column(name, k, radius, window,
                                                                   base):
    """A basis function plus 1 at one inner unknown stays in the kernel
    exactly when no constraint row holds that unknown, so the certificate
    refuses it exactly when some pivot row does: it may skip only the rows
    that share no column with a function."""
    phi, graph = builtin_interaction(name), lattice_window(k, *window)
    report = invariance_kernel(phi, radius, graph, base)
    unknowns = _kernel_unknowns(phi, radius, graph, base)
    uid = {key: i for i, key in enumerate(unknowns)}
    reducer = linalg.echelon(_kernel_rows(phi, radius, graph, base, uid))
    (lo, hi), honest = report.inner_window, family_map(report.basis[0])
    refused = 0
    for lam, entry in unknowns:
        if not (lo <= lam[0] and lam[-1] <= hi):
            continue
        table = list(honest[lam].table if lam in honest else [0] * phi.states.n ** len(lam))
        table[sum(s * phi.states.n ** i for i, s in enumerate(reversed(entry)))] += 1
        comps = {**honest, lam: ExactSupportFunction(
            states=phi.states, support=lam, table=tuple(table), base_index=base)}
        tampered = explicit_uniform(phi.states, graph, base, radius, comps)
        if any(uid[lam, entry] in row for row in reducer.pivot_rows.values()):
            refused += 1
            with pytest.raises(errors.VerificationError):
                cohomology._certify_basis([tampered], uid, reducer)
        else:
            cohomology._certify_basis([tampered], uid, reducer)
    assert refused


# ---------------------------------------------------------------------------
# admissible rows span the rows of every configuration


def assert_admissible_rows_span_every_configuration(phi, radius, graph, base):
    """The kernel's rows and the rows of every configuration of the window
    have equal rank, and together no more."""
    uid, by_site = kernel_index(_kernel_unknowns(phi, radius, graph, base))
    admissible = list(_kernel_rows(phi, radius, graph, base, uid))
    rank = linalg.rank(admissible)
    every = linalg.RowReducer()  # every row here is an integer row
    for row in reference_kernel_rows(phi, radius, graph, base, len(graph.vertices), uid,
                                     by_site):
        every.add(row)
    assert every.rank == rank
    for row in admissible:
        every.add(row)
    assert every.rank == rank
    return rank


def smallest_window(k, radius):
    return lattice_window(k, -2 * (radius + 1), 2 * (radius + 1))


# multispecies:3 at k=3 is left out: 4^9 configurations per edge take about
# a minute per base.
EXACTNESS_CASES = [
    (name, k, radius)
    for name in ["exclusion", "multispecies:2", "multispecies:3", "two-species-ac",
                 "quastel2"]
    for k, radius in [(1, 1), (1, 2), (2, 1), (3, 1)]
    if (name, k) != ("multispecies:3", 3)
] + [("heavier-swap-route", 1, 1), ("four-state-detour", 1, 1)]


@pytest.mark.parametrize(
    "name,k,radius", EXACTNESS_CASES, ids=[f"{n}-k{k}r{r}" for n, k, r in EXACTNESS_CASES]
)
def test_admissible_rows_span_every_configuration(name, k, radius):
    phi = {
        "heavier-swap-route": _heavier_swap_route, "four-state-detour": _four_state_detour,
    }.get(name, lambda: builtin_interaction(name))()
    for base in range(phi.states.n):
        assert_admissible_rows_span_every_configuration(
            phi, radius, smallest_window(k, radius), base
        )


@settings(max_examples=15, deadline=None)
@given(phi=small_interactions(), k=st.integers(1, 2), radius=st.integers(0, 1))
def test_admissible_rows_span_every_configuration_for_generated_interactions(phi, k, radius):
    assert_admissible_rows_span_every_configuration(
        phi, radius, smallest_window(k, radius), phi.states.base_index
    )


# ---------------------------------------------------------------------------
# the kernel against its former routes: the nullspace over every unknown
# projected onto the inner window, and the nested pattern generator


def former_unknowns(phi, radius, graph, base):
    """Unknowns in (size, sites), then entry order: boundary and inner
    supports interleaved, as the kernel numbered them before."""
    nonbase = [s for s in range(phi.states.n) if s != base]
    return [
        (lam, entry)
        for lam in _candidate_supports(*graph.window, graph.k * radius)
        for entry in itertools.product(nonbase, repeat=len(lam))
    ]


def reference_admissible(x, y, reach):
    """Sites S outside {x, y} with S ∪ {x} or S ∪ {y} spanning at most
    ``reach``, in order of (|S|, S): the generator ``_kernel_rows`` nested
    before it read the patterns off the candidate supports."""
    others = [s for s in range(x - reach, y + reach + 1) if s not in (x, y)]
    for r in range(len(others) + 1):
        for sites in itertools.combinations(others, r):
            if not sites or any(
                max(sites[-1], z) - min(sites[0], z) <= reach for z in (x, y)
            ):
                yield sites


def configuration_row(before, after, delta, base, uid, by_site):
    """The row of one transition: over the supports through a changed site,
    +1 at the entry of ``after`` and −1 at that of ``before`` where that
    entry has no base state, zero sums dropped."""
    row = {}
    lams = set()
    for d in delta:
        lams.update(by_site.get(d, ()))
    for lam in lams:
        be = tuple(before.get(s, base) for s in lam)
        af = tuple(after.get(s, base) for s in lam)
        if be == af:
            continue
        if base not in af:
            key = uid[(lam, af)]
            row[key] = row.get(key, 0) + 1
        if base not in be:
            key = uid[(lam, be)]
            row[key] = row.get(key, 0) - 1
    return {c: v for c, v in row.items() if v}


def reference_moves(phi, radius, graph, base, once=False):
    """``(sites, before, after, delta)`` at each inner edge (x, y), pattern from
    ``reference_admissible`` and move: every move, or with ``once`` only the
    moves to a larger (c, d)."""
    a, b = graph.window
    reach = graph.k * radius
    lo, hi = a + reach, b - reach
    states = range(phi.states.n)
    nonbase = [s for s in states if s != base]
    for x, y in graph.unordered_edges():
        if not (lo <= x and y <= hi):
            continue
        for sites in reference_admissible(x, y, reach):
            for s, t, *values in itertools.product(states, states, *[nonbase] * len(sites)):
                pattern = dict(zip(sites, values))
                pattern[x], pattern[y] = s, t
                for _, _, (c, d) in phi.edge_moves[(s, t)]:
                    if (c, d) == (s, t) or once and (c, d) < (s, t):
                        continue
                    after = {**pattern, x: c, y: d}
                    delta = [site for site, old, new in ((x, s, c), (y, t, d)) if old != new]
                    yield sites, pattern, after, delta


def reference_admissible_rows(phi, radius, graph, base, uid, by_site):
    """The configuration row of every move of ``reference_moves``, reverse
    moves included: the rows ``_kernel_rows`` gave before they were Möbius
    components, and their negations."""
    for _, before, after, delta in reference_moves(phi, radius, graph, base):
        row = configuration_row(before, after, delta, base, uid, by_site)
        if row:
            yield row


def reference_component_rows(phi, radius, graph, base, uid, by_site):
    """``_kernel_rows`` by inclusion–exclusion: for each move to a larger
    (c, d) of a pattern P on the sites T off the edge, the sum over U ⊆ T of
    (−1)^{|T|−|U|} times the row of the same move at P|U (P with the sites
    of T∖U set to base); empty rows dropped."""
    for sites, before, after, delta in reference_moves(phi, radius, graph, base, once=True):
        row = {}
        for r in range(len(sites) + 1):
            for kept in itertools.combinations(sites, r):
                dropped = dict.fromkeys(set(sites) - set(kept), base)
                sign = (-1) ** (len(sites) - r)
                for c, v in configuration_row({**before, **dropped}, {**after, **dropped},
                                              delta, base, uid, by_site).items():
                    row[c] = row.get(c, 0) + sign * v
        row = {c: v for c, v in row.items() if v}
        if row:
            yield row


def reference_projected_basis(phi, radius, graph, base):
    """The kernel report by the former route: the former column order, the
    canonical nullspace over every unknown, padded, projected onto the inner
    columns, a second ``rref_basis`` padded again, and tables filled by mixed
    radix."""
    unknowns = former_unknowns(phi, radius, graph, base)
    uid, by_site = kernel_index(unknowns)
    reducer = linalg.RowReducer()
    for row in reference_admissible_rows(phi, radius, graph, base, uid, by_site):
        reducer.add(row)
    kernel_vectors = [padded(row, len(unknowns)) for row in linalg.nullspace_of(
        reducer, len(unknowns))]
    a, b = graph.window
    margin = graph.k * radius
    lo, hi = a + margin, b - margin
    inner_cols = [
        i for i, (lam, _) in enumerate(unknowns) if lo <= lam[0] and lam[-1] <= hi
    ]
    projected = [
        {new: vec[old] for new, old in enumerate(inner_cols) if vec[old]}
        for vec in kernel_vectors
    ]
    basis_vectors = [padded(row, len(inner_cols)) for row in linalg.rref_basis(projected)]
    states = phi.states
    basis = []
    for vec in basis_vectors:
        tables = {}
        for new, value in enumerate(vec):
            if not value:
                continue
            lam, entry = unknowns[inner_cols[new]]
            table = tables.setdefault(lam, [Fraction(0)] * states.n ** len(lam))
            idx = 0
            for s in entry:
                idx = idx * states.n + s
            table[idx] = value
        comps = {
            lam: ExactSupportFunction(
                states=states, support=lam, table=tuple(tab), base_index=base
            )
            for lam, tab in tables.items()
        }
        basis.append(explicit_uniform(states, graph, base, radius, comps))
    return KernelReport(
        window=(a, b),
        k=graph.k,
        radius=radius,
        inner_window=(lo, hi),
        unknown_count=len(unknowns),
        constraint_rank=reducer.rank,
        dimension=len(basis_vectors),
        basis=tuple(basis),
    )


def assert_kernel_matches_the_former_routes(phi, radius, graph, base):
    """The rows are the inclusion–exclusion sums of the former rows, in the
    same order, and span what the former rows of every move span."""
    unknowns = _kernel_unknowns(phi, radius, graph, base)
    index = kernel_index(unknowns)
    rows = list(_kernel_rows(phi, radius, graph, base, index[0]))
    assert all(row and set(row.values()) <= {1, -1} for row in rows)
    assert [{unknowns[c]: v for c, v in row.items()} for row in rows] == [
        {unknowns[c]: v for c, v in row.items()}
        for row in reference_component_rows(phi, radius, graph, base, *index)
    ]
    every_move = reference_admissible_rows(phi, radius, graph, base, *index)
    assert linalg.echelon(rows).rref_rows() == linalg.echelon(every_move).rref_rows()
    report = invariance_kernel(phi, radius, graph, base)
    assert report == reference_projected_basis(phi, radius, graph, base)
    return report


ROUTE_CASES = [
    (name, k, radius)
    for name in ["exclusion", "multispecies:2", "multispecies:3", "two-species-ac",
                 "quastel2"]
    for k, radius in [(1, 0), (1, 1), (1, 2), (2, 1)]
]


@pytest.mark.parametrize(
    "name,k,radius", ROUTE_CASES, ids=[f"{n}-k{k}r{r}" for n, k, r in ROUTE_CASES]
)
def test_kernel_matches_the_former_routes(name, k, radius):
    phi = builtin_interaction(name)
    for base in range(phi.states.n):
        assert_kernel_matches_the_former_routes(
            phi, radius, smallest_window(k, radius), base
        )


# Every ROUTE_CASES window is the smallest one, with one inner edge per
# offset and none of offset 3.  These longer windows translate the rows of
# each offset to several edges; interactions with more states take minutes.
@pytest.mark.parametrize("k,radius,half", [(3, 1, 6), (2, 2, 8)], ids=["k3r1", "k2r2"])
def test_exclusion_kernel_matches_the_former_routes_on_longer_windows(k, radius, half):
    for base in range(EXCLUSION.states.n):
        assert_kernel_matches_the_former_routes(
            EXCLUSION, radius, lattice_window(k, -half, half), base
        )


@settings(max_examples=40, deadline=None)
@given(phi=small_interactions(), k=st.integers(1, 2), radius=st.integers(0, 1))
def test_kernel_matches_the_former_routes_for_generated_interactions(phi, k, radius):
    assert_kernel_matches_the_former_routes(
        phi, radius, smallest_window(k, radius), phi.states.base_index
    )


# ---------------------------------------------------------------------------
# the kernel rows against the keyed translation they replaced


def keyed_translation(phi, radius, graph, base, uid):
    """``_kernel_rows`` as it was: each template row of ``_template_rows``,
    keyed by its columns, re-keyed entry by entry as ``{uid[λ + x, e]: v}``
    at each inner edge (x, y)."""
    reach = graph.k * radius
    a, b = graph.window
    lo, hi = a + reach, b - reach
    templates = {}
    for j in range(1, graph.k + 1):
        columns, rows = _template_rows(phi, reach, j, base)
        templates[j] = [{columns[c]: v for c, v in row.items()} for row in rows]
    for x, y in graph.unordered_edges():
        if lo <= x and y <= hi:
            for row in templates[y - x]:
                yield {uid[tuple(s + x for s in lam), e]: v for (lam, e), v in row.items()}


def checked_row_count(phi, radius, graph, base):
    """The number of kernel rows, after checking that the rows, each with its
    items in order, are the keyed translation's."""
    uid = {key: i for i, key in enumerate(_kernel_unknowns(phi, radius, graph, base))}
    got = [list(row.items()) for row in _kernel_rows(phi, radius, graph, base, uid)]
    assert got == [list(row.items())
                   for row in keyed_translation(phi, radius, graph, base, uid)]
    return len(got)


@pytest.mark.parametrize(
    "name,k,radius", ROUTE_CASES, ids=[f"{n}-k{k}r{r}" for n, k, r in ROUTE_CASES]
)
def test_kernel_rows_match_the_keyed_translation(name, k, radius):
    phi = builtin_interaction(name)
    for base in range(phi.states.n):
        assert checked_row_count(phi, radius, smallest_window(k, radius), base)


# at the declared base only: multispecies:3 takes seconds per base here
@pytest.mark.parametrize(
    "name", ["exclusion", "multispecies:2", "multispecies:3", "two-species-ac", "quastel2"]
)
def test_kernel_rows_match_the_keyed_translation_at_k2r2(name):
    phi = builtin_interaction(name)
    assert checked_row_count(phi, 2, smallest_window(2, 2), phi.states.base_index)


@settings(max_examples=40, deadline=None)
@given(phi=small_interactions(), k=st.integers(1, 2), radius=st.integers(0, 1))
def test_kernel_rows_match_the_keyed_translation_for_generated_interactions(phi, k, radius):
    checked_row_count(phi, radius, smallest_window(k, radius), phi.states.base_index)


# ---------------------------------------------------------------------------
# the kernel's block structure: no row mixes inner and boundary columns


def mixed_rows(phi, radius, graph, base):
    """The rows of ``_kernel_rows`` holding a column below ``first`` (a
    boundary unknown) and one at or above it (an inner unknown)."""
    lo, hi = _inner_window(graph, radius)
    unknowns = _kernel_unknowns(phi, radius, graph, base)
    uid = {key: i for i, key in enumerate(unknowns)}
    first = sum(lam[0] < lo or lam[-1] > hi for lam, _ in unknowns)
    return [row for row in _kernel_rows(phi, radius, graph, base, uid)
            if min(row) < first <= max(row)]


BLOCK_CASES = [
    (name, k, radius, window)
    for name in ["exclusion", "multispecies:2", "multispecies:3", "two-species-ac", "quastel2"]
    for k, radius in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]
    for window in [(-8, 8), (-10, 10)]
]


@pytest.mark.parametrize(
    "name,k,radius,window", BLOCK_CASES,
    ids=[f"{n}-k{k}r{r}-{b}" for n, k, r, (_, b) in BLOCK_CASES],
)
def test_no_kernel_row_mixes_inner_and_boundary_columns(name, k, radius, window):
    """A row at an inner edge e holds supports T ∪ E with E ⊆ e, inside the
    inner window exactly when its pattern T is; at every base."""
    phi = builtin_interaction(name)
    graph = lattice_window(k, *window)
    for base in range(phi.states.n):
        assert mixed_rows(phi, radius, graph, base) == [], base


@settings(max_examples=40, deadline=None)
@given(phi=small_interactions(), k=st.integers(1, 2), radius=st.integers(1, 2),
       extra=st.integers(0, 2))
def test_no_kernel_row_mixes_inner_and_boundary_columns_for_generated_interactions(
        phi, k, radius, extra):
    graph = lattice_window(k, -2 * (radius + 1), 2 * (radius + 1) + extra)
    assert mixed_rows(phi, radius, graph, phi.states.base_index) == []


def test_one_state_interaction_has_an_empty_kernel():
    """No non-base state, so no unknown, no candidate support through any
    site, and no pattern to fire."""
    phi = make_interaction(state_space(["0"], "0"), [((0, 0), (0, 0))])
    report = assert_kernel_matches_the_former_routes(phi, 1, lattice_window(1, -5, 5), 0)
    assert (report.unknown_count, report.constraint_rank, report.dimension) == (0, 0, 0)
    assert report.basis == ()


def family_rows(functions, columns):
    """Each family's ``family_items`` tables as one sparse row; ``columns``
    numbers the (support, assignment) entries and grows as they appear."""
    rows = []
    for f in functions:
        row = {}
        for key, comp in family_items(f):
            for assignment in comp.assignments():
                value = comp.value_at(assignment)
                if value:
                    row[columns.setdefault((key, assignment), len(columns))] = value
        rows.append(row)
    return rows


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize(
    "name", ["exclusion", "multispecies:2", "multispecies:3", "two-species-ac", "quastel2"]
)
def test_kernel_does_not_depend_on_the_base(name, radius):
    """The paper builds uniform functions without a base state: the kernel at
    base b, rebased to b', spans the kernel computed at b'."""
    phi = builtin_interaction(name)
    graph = lattice_window(1, -2 * (radius + 1), 2 * (radius + 1))
    kernels = [invariance_kernel(phi, radius, graph, b) for b in range(phi.states.n)]
    for b, other in itertools.permutations(range(phi.states.n), 2):
        columns = {}
        moved = family_rows([rebase(f, other) for f in kernels[b].basis], columns)
        native = family_rows(kernels[other].basis, columns)
        ranks = (linalg.rank(moved), linalg.rank(native), linalg.rank(moved + native))
        assert ranks == (kernels[other].dimension,) * 3, (b, other)
