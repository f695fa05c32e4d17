"""Exact elimination: sympy oracles, and the integer core against the two
reducers it replaced, each kept verbatim as a reference.

``FractionRowReducer`` is the rational reducer: the integer ``RowReducer``
must reproduce its ranks, ``add`` results, pivot columns, fill, canonical
reduced echelon forms and nullspace bases exactly.  ``SteppedRowReducer`` is
the integer reducer whose step was a separate function, shared by ``reduce``
and an integer back-substitution: the single-loop ``RowReducer`` must give
the same ``add`` results, ranks, elimination step counts, pivot rows (items
in order) and reduced echelon forms.  Both hold on generated rows and on the
row sets the package builds.
"""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticecalc import errors, linalg
from latticecalc.cohomology import (
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
    remap,
    rref_basis,
)
from latticecalc.rationals import ensure_fraction, format_rational, parse_rational
from latticecalc.sitegraph import cycle_graph, lattice_window, path_graph

from conftest import CountingPivots, reference_template_rows

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


def _eliminate(rem, pivot, col):
    """``rem`` times a positive integer, minus the multiple of ``pivot`` that
    clears its ``col`` entry.  ``rem`` itself may be modified."""
    p, factor = pivot[col], rem[col]
    g = gcd(p, factor)
    if p != g:
        scale = p // g
        rem = {c: v * scale for c, v in rem.items()}
    factor //= g
    for c, v in pivot.items():
        new = rem.get(c, 0) - factor * v
        if new:
            rem[c] = new
        else:
            rem.pop(c, None)
    return rem


def _normalized(row, col):
    """``row`` divided by its content, with a positive entry at ``col``."""
    content = gcd(*row.values())
    if row[col] < 0:
        content = -content
    if content == 1:
        return row
    return {c: v // content for c, v in row.items()}


class SteppedRowReducer:
    """Integer echelon form with the step in ``_eliminate`` (the reference)."""

    def __init__(self) -> None:
        self.pivot_rows = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row):
        """A nonzero multiple of the remainder of the integer ``row`` after
        elimination against the rows seen so far; empty when it is in their span."""
        rem = {c: v for c, v in row.items() if v}
        while rem:
            col = min(rem)
            pivot = self.pivot_rows.get(col)
            if pivot is None:
                return rem
            rem = _eliminate(rem, pivot, col)
        return rem

    def add(self, row) -> bool:
        """Insert an integer row; True when it enlarged the span.  The pivot
        row kept is primitive whatever the row's content."""
        rem = self.reduce(row)
        if not rem:
            return False
        col = min(rem)
        self.pivot_rows[col] = _normalized(rem, col)
        return True

    def rref_rows(self):
        """Back-eliminated pivot rows sorted by pivot column (canonical RREF)."""
        out = {}
        for col in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[col]
            later = [c for c in row if c != col and c in out]
            if later:
                row = dict(row)
                for c in later:
                    row = _eliminate(row, out[c], c)
                row = _normalized(row, col)
            out[col] = row
        return [
            {c: Fraction(v, row[col]) for c, v in row.items()}
            for col, row in sorted(out.items())
        ]


def assert_matches_stepped(rows):
    """The single loop answers ``rows`` as the stepped reducer does, step for
    step; it fails rather than hangs past the reference's step count."""
    ref = SteppedRowReducer()
    ref.pivot_rows = CountingPivots()
    kept = [ref.add(row) for row in rows]
    mine = RowReducer()
    mine.pivot_rows = CountingPivots(limit=ref.pivot_rows.hits)
    assert [mine.add(row) for row in rows] == kept
    assert mine.pivot_rows.hits == ref.pivot_rows.hits
    assert mine.rank == ref.rank
    assert [(c, list(r.items())) for c, r in mine.pivot_rows.items()] == [
        (c, list(r.items())) for c, r in ref.pivot_rows.items()]
    assert [list(r.items()) for r in mine.rref_rows()] == [
        list(r.items()) for r in ref.rref_rows()]
    return mine.pivot_rows


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
    kept = [mine.add(linalg._primitive(row)) for row in rows]
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
    assert red.add({0: 1, 1: 2})
    assert red.add({1: 1})
    assert not red.add({0: 2, 1: 4})
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


@settings(deadline=None, max_examples=300)
@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-5, 5), max_size=6),
                max_size=8))
@example([{0: 2, 1: 1}, {0: 3, 2: 1}, {0: 1, 1: 1, 2: 1}])
@example([{0: -1, 1: 2}, {1: 4, 2: -6}, {0: 5, 2: 3}])
def test_single_loop_matches_the_stepped_reducer(rows):
    assert_matches_stepped(rows)


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


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("make_graph", [path_graph, cycle_graph], ids=["path", "cycle"])
def test_h0_rows_match_the_stepped_reducer(monkeypatch, name, make_graph):
    phi, graph = builtin_interaction(name), make_graph(6)
    calls = recorded_calls(
        monkeypatch, RowReducer, "add", lambda: h0_h1_finite(phi, graph)
    )
    monkeypatch.undo()
    assert calls
    assert_matches_stepped([row for _, row in calls])


STEPPED_KERNEL_CASES = [
    (name, k, radius) for name in BUILTINS for k, radius in [(1, 1), (1, 2), (2, 1)]
]


@pytest.mark.parametrize(
    "name,k,radius", STEPPED_KERNEL_CASES,
    ids=[f"{n}-k{k}r{r}" for n, k, r in STEPPED_KERNEL_CASES],
)
def test_kernel_rows_match_the_stepped_reducer(name, k, radius):
    """At every base, on the smallest window the kernel takes; only
    ``two-species-ac`` eliminates against pivot entries other than 1."""
    phi = builtin_interaction(name)
    graph = lattice_window(k, -2 * (radius + 1), 2 * (radius + 1))
    non_unit = 0
    for base in range(phi.states.n):
        unknowns = _kernel_unknowns(phi, radius, graph, base)
        uid = {key: i for i, key in enumerate(unknowns)}
        rows = list(_kernel_rows(phi, radius, graph, base, uid))
        non_unit += assert_matches_stepped(rows).non_unit
    assert (non_unit > 0) == (name == "two-species-ac")


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
    uid = {key: i for i, key in enumerate(unknowns)}
    rows = list(_kernel_rows(phi, radius, graph, base, uid))
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


@pytest.mark.parametrize("name", BUILTINS)
def test_consv_rows_match_the_stepped_reducer(monkeypatch, name):
    phi = builtin_interaction(name)
    calls = []  # recorded only: a faulty reducer fails below instead of hanging here
    monkeypatch.setattr(linalg, "nullspace", lambda rows, n: calls.append(rows) or [])
    for base in range(phi.states.n):
        consv_basis(phi, base)
    assert len(calls) == phi.states.n
    for rows in calls:
        assert_matches_stepped([linalg._primitive(row) for row in rows])


@pytest.mark.parametrize("name", BUILTINS)
def test_consv_rows_match_the_per_row_fold(monkeypatch, name):
    """``consv_basis`` feeds the base row, then each template row with every
    column (λ, e) folded onto the state e[0], equal states summed in order of
    first appearance and zero sums dropped."""
    phi = builtin_interaction(name)
    calls = recorded_calls(
        monkeypatch, linalg, "nullspace",
        lambda: [consv_basis(phi, base) for base in range(phi.states.n)],
    )
    assert len(calls) == phi.states.n
    for base, (rows, ncols) in enumerate(calls):
        folded = []
        for template in reference_template_rows(phi, 0, 1, base):
            row = {}
            for (_, (s,)), value in template.items():
                row[s] = row.get(s, 0) + value
            folded.append({s: v for s, v in row.items() if v})
        assert ncols == phi.states.n
        assert [list(row.items()) for row in rows] == [
            list(row.items()) for row in [{base: 1}, *folded]]


def test_remap_sums_entries_with_equal_targets():
    assert list(remap({0: 1, 1: 2, 2: 3}, [7, 4, 7]).items()) == [(7, 4), (4, 2)]


def test_remap_drops_zero_sums():
    assert list(remap({0: 1, 1: 2, 2: -1}, [7, 4, 7]).items()) == [(4, 2)]
    assert remap({0: 1, 1: -1}, [3, 3]) == {}
    assert remap({}, []) == {}


def test_remap_keeps_targets_in_first_seen_order():
    # 9 is seen first, so it leads though 2 < 9
    assert list(remap({0: 1, 1: 1, 2: 1}, [9, 2, 9]).items()) == [(9, 2), (2, 1)]
    # the row's own item order decides, not the order of its columns
    assert list(remap({2: 1, 0: 1}, [5, 6, 7]).items()) == [(7, 1), (5, 1)]


@given(st.dictionaries(st.integers(0, 9), st.integers(-3, 3).filter(bool)),
       st.permutations(range(10)))
def test_remap_through_a_one_to_one_target_only_relabels(row, target):
    assert list(remap(row, target).items()) == [(target[c], v) for c, v in row.items()]


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
