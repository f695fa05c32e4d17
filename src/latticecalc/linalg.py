"""Exact linear algebra on sparse integer rows.

Rows are sparse ``{column: value}`` maps.  Every constraint system in this
package has integer rows (incidence rows for ``h0``, ±1 transition rows for
the invariance kernel, small pair-sum rows for ``consv``), so
``RowReducer.add``, the one elimination step, takes and keeps integer rows.
``echelon`` and the entry points built on it (``rank``, ``nullspace``,
``rref_basis``) also accept rows with ``Fraction`` values: each row is
scaled there to the primitive integer row on the same line (denominators
cleared, common factor divided out), which spans the same space.

Elimination is fraction-free, as in Bareiss (1968) but with gcd
cancellation in place of exact division.  A remainder with entry ``r`` in
the column of a pivot row with pivot entry ``p`` becomes
``(p/g)·rem − (r/g)·pivot`` with ``g = gcd(p, r)``, or ``rem − r·pivot``
when ``p`` is 1, as for every ``h0`` star row; a row that is kept
is divided by its content and signed so its pivot entry is positive.  Each
integer remainder is a nonzero multiple of the remainder the same steps give
over the rationals, so ranks, pivot columns and fill are those of rational
elimination, without a ``Fraction`` (and its gcd) per entry and step.

Elimination modulo a word-sized prime would be cheaper per step, but it can
lose rank (the row ``[p, 0]`` vanishes mod ``p``), so its answers would need
an exact certificate and an exact fallback.  Integer elimination is exact by
construction and needs neither.

Elimination always pivots on the smallest column of a row, so ranks, reduced
echelon forms and nullspace bases are deterministic.  Results leave as the
canonical reduced echelon form over the rationals (pivot entries 1), built
by back-substitution over ``Fraction``: each pivot row is divided by its
pivot entry once and cleared with the reduced rows of larger pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = dict[int, int]

_ZERO = Fraction(0)


def remap(row: Row, target) -> Row:
    """``row`` with column c at ``target[c]``: sums in first-seen order, zeros dropped."""
    out: Row = {}
    for c, v in row.items():
        out[target[c]] = out.get(target[c], 0) + v
    return {c: v for c, v in out.items() if v}


def _primitive(row: dict[int, int | Fraction]) -> Row:
    """The primitive integer row on the line of an ``int``/``Fraction`` row."""
    den = lcm(*(v.denominator for v in row.values()))
    ints = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
    return _normalized(ints, min(ints)) if ints else ints


def _normalized(row: Row, col: int) -> Row:
    """``row`` divided by its content, with a positive entry at ``col``."""
    content = gcd(*row.values())
    if row[col] < 0:
        content = -content
    if content == 1:
        return row
    return {c: v // content for c, v in row.items()}


class RowReducer:
    """Incremental echelon form; feed rows one at a time, query the rank anytime.

    ``pivot_rows`` maps each pivot column to a primitive integer row whose
    smallest column is that pivot and whose pivot entry is positive.
    """

    def __init__(self) -> None:
        self.pivot_rows: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def add(self, row: Row) -> bool:
        """Insert an integer row; True when it enlarged the span.  Steps with
        a pivot entry of 1 need no gcd, and the remainder kept is stored as
        the primitive row with a positive pivot entry."""
        rem = {c: v for c, v in row.items() if v}
        while rem:
            col = min(rem)
            pivot = self.pivot_rows.get(col)
            factor = rem[col]
            if pivot is None:
                if factor == -1:
                    rem = {c: -v for c, v in rem.items()}
                elif factor != 1:
                    rem = _normalized(rem, col)
                self.pivot_rows[col] = rem
                return True
            p = pivot[col]
            if p != 1:
                g = gcd(p, factor)
                scale, factor = p // g, factor // g
                for c in rem:
                    rem[c] *= scale
            for c, v in pivot.items():
                new = rem.get(c, 0) - factor * v
                if new:
                    rem[c] = new
                else:
                    del rem[c]
        return False

    def rref_rows(self) -> list[dict[int, Fraction]]:
        """The canonical RREF, sorted by pivot column: each pivot row divided
        by its pivot entry, then cleared with the returned rows of larger pivot."""
        out: dict[int, dict[int, Fraction]] = {}
        for col in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[col]
            rref = {c: Fraction(v, row[col]) for c, v in row.items()}
            for c in [c for c in row if c in out]:
                factor = rref[c]
                for d, v in out[c].items():
                    new = rref.get(d, 0) - factor * v
                    if new:
                        rref[d] = new
                    else:
                        del rref[d]
            out[col] = rref
        return [out[col] for col in sorted(out)]


def echelon(rows) -> RowReducer:
    """Reducer holding ``int`` or ``Fraction`` rows, each added as its
    primitive integer row."""
    reducer = RowReducer()
    for row in rows:
        reducer.add(_primitive(row))
    return reducer


def rank(rows) -> int:
    return echelon(rows).rank


def dense(row: dict[int, Fraction], ncols: int) -> tuple[Fraction, ...]:
    out = [_ZERO] * ncols
    for c, v in row.items():
        out[c] = v
    return tuple(out)


def rref_basis(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical (RREF) basis of the span of ``rows``, as dense vectors."""
    return [dense(r, ncols) for r in echelon(rows).rref_rows()]


def nullspace_of(reducer: RowReducer, ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the solution space of the rows held by ``reducer``."""
    rref = reducer.rref_rows()
    pivot_set = {min(r) for r in rref}
    vectors: list[dict[int, Fraction]] = []
    for free in (c for c in range(ncols) if c not in pivot_set):
        vec = {free: Fraction(1)}
        for row in rref:
            coeff = row.get(free)
            if coeff:
                vec[min(row)] = -coeff
        vectors.append(vec)
    # normalize the basis itself so the output is unique for the solution space
    return rref_basis(vectors, ncols)


def nullspace(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    return nullspace_of(echelon(rows), ncols)
