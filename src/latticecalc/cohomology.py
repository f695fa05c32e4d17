"""Invariants of the transition structure.

Three entry points:

* ``h0_h1_finite`` enumerates every configuration of a finite system and
  computes the dimensions of locally constant functions (h0) and of cycles
  modulo differences (h1).  One breadth-first search yields both h0 routes,
  the component count and the exact rank of every transition pair, and its
  star-ordered columns eliminate each pair in at most two steps.

* ``extract_conserved`` decides whether a uniform function is the site-wise
  sum of a conserved quantity, returning either the quantity or a typed
  violation with a witness.

* ``invariance_kernel`` computes, over a lattice window, the exact solution
  space of "the difference along every transition vanishes", which recovers
  the conserved quantities as window length grows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import caps, linalg
from .errors import (NormalizationError, Record, SchemaError, VerificationError,
                     WindowTooSmallError, require_same_system)
from .interaction import ConservedQuantity, Interaction, _candidate_supports, _template_rows
from .localfn import LocalFunction
from .rationals import require_int
from .sitegraph import LATTICE_Z, SiteGraph
from .transitions import ConfigCode
from .uniform import (
    UniformFunction,
    explicit_uniform,
    family_map,
    families_equal,
    xi_X,
)

# ---------------------------------------------------------------------------
# finite enumeration


class CochainSpaceSummary(Record):
    dim_c0: int
    dim_c1: int
    rank_d: int

    @property
    def h0(self) -> int:
        return self.dim_c0 - self.rank_d

    @property
    def h1(self) -> int:
        return self.dim_c1 - self.rank_d


def configuration_count(phi: Interaction, sites: int) -> int:
    """The n^sites configurations of ``phi`` on ``sites`` sites, counted
    against ``max_table`` before any of them is enumerated."""
    size = phi.states.n ** sites
    caps.require("max_table", size, "{} configurations exceed cap {}")
    return size


def h0_h1_finite(phi: Interaction, graph: SiteGraph) -> CochainSpaceSummary:
    """Exact cochain dimensions for a finite system by full enumeration.

    One breadth-first search over the ``ConfigCode`` integers labels the
    components and feeds each unordered transition pair {u, w} once to a
    ``linalg.RowReducer``: when u is popped and w is new or was discovered
    after u.  The component count and V − rank by exact elimination must
    agree or the computation aborts.

    A component starts at each code not yet seen, in ascending order; the
    root of the c-th takes column V − c, every other configuration the next
    column from 0 upward in discovery order.  Invariant: every pivot row is
    a star row {v: 1, root of v: −1}.  So the row {u, w} reduces through u's
    star row to {w, root}, then through w's star row to nothing, or it is
    kept as w's star row: at most two elimination steps per pair.
    """
    size = configuration_count(phi, len(graph.vertices))
    codes = ConfigCode(phi, graph)
    reducer = linalg.RowReducer()
    column = [-1] * size
    free, top, pairs = 0, size, 0
    for start in range(size):
        if column[start] >= 0:
            continue
        top -= 1
        column[start] = top
        queue = [start]
        for u in queue:  # the loop reaches every code appended below
            cu = column[u]
            # w was discovered after u iff lo < column[w] < top (u itself fails)
            lo = cu if cu < top else -1
            for w in dict.fromkeys(w for _, _, w in codes.fire(u)):
                if column[w] < 0:
                    column[w] = free
                    free += 1
                    queue.append(w)
                if lo < column[w] < top:
                    reducer.add({cu: -1, column[w]: 1})
                    pairs += 1
    components, rank = size - top, reducer.rank
    if components != size - rank:
        raise VerificationError("component count and difference rank disagree")
    return CochainSpaceSummary(dim_c0=size, dim_c1=pairs, rank_d=rank)


# ---------------------------------------------------------------------------
# extraction of conserved quantities

CONSERVED = "conserved"
UNEQUAL_SINGLE_SITE = "unequal-single-site"
NONZERO_MULTI_SITE = "nonzero-multi-site"
NOT_CONSERVED_PAIR = "not-conserved-pair"


class ExtractionResult(Record):
    """Either a conserved quantity or a typed violation with a witness."""

    outcome: str
    xi: ConservedQuantity | None = None
    witness: object = None


def extract_conserved(f: UniformFunction, phi: Interaction) -> ExtractionResult:
    """Decide whether f is the site-wise sum of a conserved quantity.

    Checks run from cheapest to most structural: all single-site components
    must agree, every larger component must vanish, and the common
    single-site table must have constant pair sums along the interaction.
    A conserved outcome is re-verified componentwise against the
    reassembled site-wise sum; a failure there is a ``VerificationError``.
    """
    require_same_system(f, phi, "function and interaction")
    if f.constant_term() != 0:
        raise NormalizationError("constant term must vanish before extraction")
    fam = family_map(f)
    zero_table = (Fraction(0),) * f.states.n
    vertices = f.graph.vertices
    ref_site = vertices[0]
    ref = fam[(ref_site,)].table if (ref_site,) in fam else zero_table
    for x in vertices[1:]:
        table = fam[(x,)].table if (x,) in fam else zero_table
        if table != ref:
            return ExtractionResult(outcome=UNEQUAL_SINGLE_SITE, witness=(ref_site, x))
    for key in sorted(fam, key=lambda k: (len(k), k)):
        if len(key) >= 2:
            return ExtractionResult(outcome=NONZERO_MULTI_SITE, witness=key)
    xi = ConservedQuantity(states=f.states, values=ref, base_index=f.base_index)
    edge = xi.unconserved_edge(phi)
    if edge is not None:
        return ExtractionResult(outcome=NOT_CONSERVED_PAIR, witness=edge)
    if not families_equal(f, xi_X(xi, f.graph, f.base_index)):
        raise VerificationError("conserved quantity does not rebuild the function")  # defensive
    return ExtractionResult(outcome=CONSERVED, xi=xi)


# ---------------------------------------------------------------------------
# invariance kernel over a lattice window


class KernelReport(Record):
    window: tuple[int, int]
    k: int
    radius: int
    inner_window: tuple[int, int]
    unknown_count: int
    constraint_rank: int
    dimension: int
    basis: tuple[UniformFunction, ...]


def _inner_window(graph: SiteGraph, radius: int) -> tuple[int, int]:
    """The sites at least k·R from both ends of the window."""
    a, b = graph.window
    reach = graph.k * radius
    return a + reach, b - reach


def _kernel_unknowns(phi: Interaction, radius: int, graph: SiteGraph, base: int):
    """Unknowns (λ, entry): boundary supports (not inside the inner window)
    first, so the inner unknowns are one suffix; within each group the order
    is (size, sites), then entry.

    The cap is checked before they are listed: a support starting at x adds
    any of the m_x window sites in (x, x + k·R], and each of its sites takes
    n − 1 values, so there are (n − 1)·Σ_x n^(m_x) unknowns: n^r − 1 +
    (n − 1)·(w − r)·n^r on w window sites, with r = min(k·R, w)."""
    n, (a, b), reach = phi.states.n, graph.window, graph.k * radius
    r = min(reach, b - a + 1)
    count = n ** r - 1 + (n - 1) * (b - a + 1 - r) * n ** r
    caps.require("max_unknowns", count, "{} unknowns exceed cap {}")
    lo, hi = _inner_window(graph, radius)
    nonbase = [s for s in range(n) if s != base]
    supports = _candidate_supports(a, b, reach)
    supports.sort(key=lambda lam: lo <= lam[0] and lam[-1] <= hi)
    unknowns = []
    for lam in supports:
        for entry in product(nonbase, repeat=len(lam)):
            unknowns.append((lam, entry))
    return unknowns


def _kernel_rows(phi: Interaction, radius: int, graph: SiteGraph, base: int, uid: dict):
    """The rows of ``_template_rows`` at each inner edge (x, y), mapped by
    (λ, e) → ``uid[λ + x, e]``: every candidate support through an inner edge
    lies in the window, so its rows are those of the whole lattice."""
    reach = graph.k * radius
    lo, hi = _inner_window(graph, radius)
    offsets = range(1, min(graph.k, hi - lo) + 1)  # those of the inner edges
    templates = {j: _template_rows(phi, reach, j, base) for j in offsets}
    for x, y in graph.unordered_edges():
        if lo <= x and y <= hi:
            columns, rows = templates[y - x]
            target = [uid[tuple(s + x for s in lam), e] for lam, e in columns]
            yield from (linalg.remap(row, target) for row in rows)


def _certify_basis(basis, uid: dict, reducer: linalg.RowReducer) -> None:
    """Raise ``VerificationError`` unless every basis function, read back
    from its component tables, annihilates every pivot row of ``reducer``.

    Each row fed to ``reducer`` was either kept or reduced to zero against
    the pivot rows, so the pivot rows span every constraint row and the
    check covers the whole constraint set.
    """
    for fn in basis:
        vec = {
            uid[(lam, entry)]: value
            for lam, comp in fn.components
            for entry, value in zip(comp.assignments(), comp.table)
            if value
        }
        for row in reducer.pivot_rows.values():
            if sum(coef * vec[c] for c, coef in row.items() if c in vec):
                raise VerificationError("kernel basis violates a constraint row")


def invariance_kernel(
    phi: Interaction,
    radius: int,
    graph: SiteGraph,
    base: int,
) -> KernelReport:
    """Solution space of "every transition difference vanishes" on a window.

    Unknowns are the exact-support table entries of all candidate components
    inside the window.  Constraints come from transitions fired inside the
    inner window (so no component pokes outside the window); their span is
    that of the rows of every configuration, as ``_template_rows`` shows.
    Components not contained in the inner window are boundary artifacts; the
    reported basis is the canonical basis of the kernel projected onto the
    inner window, certified by ``_certify_basis`` against every constraint
    row.

    Inner unknowns are the columns from ``first`` on.  A pivot row with pivot
    >= ``first`` involves only them; every other pivot row has its own
    boundary pivot, so those rows fix boundary unknowns whatever the inner
    values.  The projection is thus the nullspace of the inner pivot rows.
    """
    if graph.kind != LATTICE_Z:
        raise SchemaError("invariance kernel needs an integer-lattice window")
    require_int(radius, "radius must be a nonnegative integer")
    require_int(base, "base index {} out of range", 0, phi.states.n)
    a, b = graph.window
    if b - a < 4 * (radius + 1):
        raise WindowTooSmallError(
            f"window length {b - a} below the minimum {4 * (radius + 1)}"
        )
    lo, hi = _inner_window(graph, radius)
    if hi - lo < 1:
        raise WindowTooSmallError(f"inner window [{lo}, {hi}] holds no edge")
    unknowns = _kernel_unknowns(phi, radius, graph, base)
    uid = {key: i for i, key in enumerate(unknowns)}
    reducer = linalg.RowReducer()
    for row in _kernel_rows(phi, radius, graph, base, uid):
        reducer.add(row)
    first = sum(lam[0] < lo or lam[-1] > hi for lam, _ in unknowns)
    inner = linalg.RowReducer()  # echelon already: the rows are shifted, not re-added
    inner.pivot_rows = {
        col - first: {c - first: v for c, v in row.items()}
        for col, row in reducer.pivot_rows.items()
        if col >= first
    }
    basis = []
    for vec in linalg.nullspace_of(inner, len(unknowns) - first):
        entries: dict[tuple, dict] = {}
        for (lam, entry), value in zip(unknowns[first:], vec):
            if value:
                entries.setdefault(lam, {})[entry] = value
        comps = {
            lam: LocalFunction.from_entries(phi.states, lam, values)
            for lam, values in entries.items()
        }
        basis.append(explicit_uniform(phi.states, graph, base, radius, comps))
    _certify_basis(basis, uid, reducer)
    return KernelReport(
        window=(a, b),
        k=graph.k,
        radius=radius,
        inner_window=(lo, hi),
        unknown_count=len(unknowns),
        constraint_rank=reducer.rank,
        dimension=len(basis),
        basis=tuple(basis),
    )
