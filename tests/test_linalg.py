"""Exact elimination: sympy oracles, and the integer core against the
rational reducer it replaced.

``FractionRowReducer`` is that rational reducer, kept verbatim as the
reference: the integer ``RowReducer`` must reproduce its ranks, ``add``
results, pivot columns, fill, canonical reduced echelon forms and nullspace
bases exactly, on generated rows and on the row sets the package builds.
"""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticecalc import errors, linalg
from latticecalc.cohomology import (
    _kernel_index,
    _kernel_rows,
    _kernel_unknowns,
    h0_h1_finite,
)
from latticecalc.interaction import builtin_interaction, consv_basis
from latticecalc.linalg import (
    RowReducer,
    dense,
    nullspace,
    nullspace_of,
    rank,
    rref_basis,
)
from latticecalc.rationals import ensure_fraction, format_rational, parse_rational
from latticecalc.sitegraph import cycle_graph, lattice_window, path_graph

P61 = 2 ** 61 - 1  # a word-sized prime: its multiples vanish under mod-p elimination

BUILTINS = ("exclusion", "multispecies:2", "multispecies:3", "two-species-ac", "quastel2")


class FractionRowReducer:
    """Incremental echelon form over ``Fraction`` rows (the reference)."""

    def __init__(self) -> None:
        self.pivot_rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row):
        rem = {c: v for c, v in row.items() if v}
        while rem:
            col = min(rem)
            pivot = self.pivot_rows.get(col)
            if pivot is None:
                return rem
            factor = rem[col]
            for c, v in pivot.items():
                new = rem.get(c, Fraction(0)) - factor * v
                if new:
                    rem[c] = new
                else:
                    rem.pop(c, None)
        return rem

    def add(self, row) -> bool:
        rem = self.reduce(row)
        if not rem:
            return False
        inv = rem[min(rem)]
        self.pivot_rows[min(rem)] = {c: v / inv for c, v in rem.items()}
        return True

    def rref_rows(self):
        cols = sorted(self.pivot_rows)
        out = {c: dict(self.pivot_rows[c]) for c in cols}
        for i in reversed(range(len(cols))):
            row = out[cols[i]]
            for j in range(i + 1, len(cols)):
                factor = row.get(cols[j])
                if not factor:
                    continue
                for c, v in out[cols[j]].items():
                    new = row.get(c, Fraction(0)) - factor * v
                    if new:
                        row[c] = new
                    else:
                        row.pop(c, None)
        return [out[c] for c in cols]


def reference_nullspace(reducer: FractionRowReducer, ncols: int):
    rref = reducer.rref_rows()
    pivot_set = {min(r) for r in rref}
    basis = FractionRowReducer()
    for free in (c for c in range(ncols) if c not in pivot_set):
        vec = {free: Fraction(1)}
        for row in rref:
            coeff = row.get(free)
            if coeff:
                vec[min(row)] = -coeff
        basis.add(vec)
    return [dense(r, ncols) for r in basis.rref_rows()]


def assert_matches_reference(rows, ncols):
    mine, ref = RowReducer(), FractionRowReducer()
    kept = [mine.add(row) for row in rows]
    assert kept == [ref.add({c: Fraction(v) for c, v in row.items()}) for row in rows]
    assert mine.rank == ref.rank
    # same pivot columns and the same nonzero pattern (fill) in every pivot row
    assert {c: set(r) for c, r in mine.pivot_rows.items()} == {
        c: set(r) for c, r in ref.pivot_rows.items()
    }
    for col, row in mine.pivot_rows.items():
        assert all(type(v) is int for v in row.values())
        assert min(row) == col and row[col] > 0 and gcd(*row.values()) == 1
    assert mine.rref_rows() == ref.rref_rows()
    assert rref_basis(rows, ncols) == [dense(r, ncols) for r in ref.rref_rows()]
    assert nullspace_of(mine, ncols) == reference_nullspace(ref, ncols)


def sparse_rows(max_rows=6, max_cols=5):
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    row = st.dictionaries(
        st.integers(min_value=0, max_value=max_cols - 1), entry, max_size=max_cols
    )
    return st.lists(row, max_size=max_rows)


def to_sympy(rows, ncols):
    return sympy.Matrix([[r.get(c, 0) for c in range(ncols)] for r in rows])


@settings(deadline=None, max_examples=60)
@given(sparse_rows())
def test_rank_matches_sympy(rows):
    ncols = 5
    mine = rank(rows)
    assert mine == to_sympy(rows, ncols).rank()


@settings(deadline=None, max_examples=60)
@given(sparse_rows())
def test_nullspace_vectors_annihilate_and_span(rows):
    ncols = 5
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - rank(rows)
    for vec in basis:
        for row in rows:
            assert sum(coef * vec[c] for c, coef in row.items()) == 0


@settings(deadline=None, max_examples=60)
@given(sparse_rows())
def test_rref_is_canonical(rows):
    ncols = 5
    basis = rref_basis(rows, ncols)
    pivots = []
    for vec in basis:
        lead = next(i for i, v in enumerate(vec) if v)
        assert vec[lead] == 1
        pivots.append(lead)
        for other in basis:
            if other is not vec:
                assert other[lead] == 0
    assert pivots == sorted(pivots)


def test_reducer_reports_dependent_rows():
    red = RowReducer()
    assert red.add({0: Fraction(1), 1: Fraction(2)})
    assert red.add({1: Fraction(1)})
    assert not red.add({0: Fraction(2), 1: Fraction(4)})
    assert red.rank == 2


def test_multiples_of_a_word_prime_keep_their_rank():
    assert rank([{0: P61}, {1: 1}]) == 2
    # [p, 2p] vanishes mod p, yet the two rows are independent over Q
    assert rank([{0: P61, 1: 2 * P61}, {0: 1, 1: 3}]) == 2
    assert nullspace([{0: P61, 1: 2 * P61}], 2) == [(1, Fraction(-1, 2))]


mixed_entries = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20)),
    st.integers(-3, 3).map(lambda k: Fraction(k * P61)),
    st.integers(-12, 12).map(Fraction),
)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 5), mixed_entries, max_size=6), max_size=7
    )
)
@example([{0: Fraction(P61)}, {1: Fraction(1)}])
@example([{0: Fraction(6), 1: Fraction(4)}, {0: Fraction(9), 2: Fraction(3)}])
def test_integer_core_matches_the_fraction_reference(rows):
    assert_matches_reference(rows, 6)


def recorded_calls(monkeypatch, target, attr, run):
    """The arguments of every call of ``target.attr`` made by ``run()``."""
    original = getattr(target, attr)
    calls = []

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(target, attr, recording)
    run()
    return calls


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("make_graph", [path_graph, cycle_graph], ids=["path", "cycle"])
def test_h0_rows_match_the_fraction_reference(monkeypatch, name, make_graph):
    phi, graph = builtin_interaction(name), make_graph(5)
    calls = recorded_calls(
        monkeypatch, RowReducer, "add", lambda: h0_h1_finite(phi, graph)
    )
    assert calls
    assert_matches_reference([row for _, row in calls], phi.states.n ** 5)


@pytest.mark.parametrize(
    "name,radius,base_label,window",
    [
        ("exclusion", 1, "0", (-5, 5)),
        ("multispecies:2", 1, "0", (-5, 5)),
        ("two-species-ac", 1, "0", (-5, 5)),
        ("two-species-ac", 1, "-1", (-5, 5)),
        ("quastel2", 1, "0", (-5, 5)),
        ("exclusion", 2, "0", (-6, 6)),  # the smallest window the kernel takes at R=2
    ],
    ids=["excl", "ms2", "ac", "ac-base-1", "quastel2", "excl-r2"],
)
def test_kernel_rows_match_the_fraction_reference(name, radius, base_label, window):
    phi, graph = builtin_interaction(name), lattice_window(1, *window)
    base = phi.states.index(base_label)
    unknowns = _kernel_unknowns(phi, radius, graph, base)
    uid, by_site = _kernel_index(unknowns)
    rows = list(_kernel_rows(phi, radius, graph, base, radius + 3, uid, by_site))
    assert_matches_reference(rows, len(unknowns))


@pytest.mark.parametrize("name", BUILTINS)
def test_consv_rows_match_the_fraction_reference(monkeypatch, name):
    phi = builtin_interaction(name)
    calls = recorded_calls(
        monkeypatch, linalg, "nullspace",
        lambda: [consv_basis(phi, base) for base in range(phi.states.n)],
    )
    assert len(calls) == phi.states.n
    for rows, ncols in calls:
        assert_matches_reference(rows, ncols)


def test_dense_pads_missing_columns():
    assert dense({2: Fraction(5)}, 4) == (0, 0, Fraction(5), 0)


def test_parse_rational_grammar():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("0") == 0
    for bad in ("1.5", "2/0", "1/2/3", "+3", "", "a", "1/-2"):
        with pytest.raises(errors.SchemaError):
            parse_rational(bad)


def test_format_parse_roundtrip():
    for v in (Fraction(7, 3), Fraction(-1, 9), Fraction(0), Fraction(12)):
        assert parse_rational(format_rational(v)) == v


def test_ensure_fraction_rejects_floats_and_bools():
    assert ensure_fraction(3) == Fraction(3)
    assert ensure_fraction("5/2") == Fraction(5, 2)
    with pytest.raises(errors.SchemaError):
        ensure_fraction(0.5)
    with pytest.raises(errors.SchemaError):
        ensure_fraction(True)
