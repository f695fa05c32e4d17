"""Exact linear algebra on sparse integer rows.

Rows are sparse ``{column: value}`` maps.  Every constraint system in this
package has integer rows (incidence rows for ``h0``, ±1 transition rows for
the invariance kernel, small pair-sum rows for ``consv``), so elimination
works on integers only.  The public entry points (``RowReducer.add``,
``echelon``, ``rank``, ``nullspace``, ``rref_basis``) also accept rows with
``Fraction`` values: each row is scaled there to the primitive integer row
on the same line (denominators cleared, common factor divided out), which
spans the same space.

Elimination is fraction-free, as in Bareiss (1968) but with gcd
cancellation in place of exact division.  A remainder with entry ``r`` in
the column of a pivot row with pivot entry ``p`` becomes
``(p/g)·rem − (r/g)·pivot`` with ``g = gcd(p, r)``, and a row that is kept
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
by integer back-substitution over the pivot rows and one division per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = dict[int, int]

_ZERO = Fraction(0)


def _primitive(row: dict[int, int | Fraction]) -> Row:
    """The primitive integer row on the line of an ``int``/``Fraction`` row."""
    den = lcm(*(v.denominator for v in row.values()))
    ints = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
    return _normalized(ints, min(ints)) if ints else ints


def _eliminate(rem: Row, pivot: Row, col: int) -> Row:
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

    def reduce(self, row: Row) -> Row:
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

    def add(self, row: dict[int, int | Fraction]) -> bool:
        """Insert an ``int`` or ``Fraction`` row; True when it enlarged the span."""
        rem = self.reduce(_primitive(row))
        if not rem:
            return False
        col = min(rem)
        self.pivot_rows[col] = _normalized(rem, col)
        return True

    def rref_rows(self) -> list[dict[int, Fraction]]:
        """Back-eliminated pivot rows sorted by pivot column (canonical RREF)."""
        out: dict[int, Row] = {}
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


def echelon(rows) -> RowReducer:
    reducer = RowReducer()
    for row in rows:
        reducer.add(row)
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
