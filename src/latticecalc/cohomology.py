"""Invariants of the transition structure.

Three entry points:

* ``h0_h1_finite`` enumerates every configuration of a finite system and
  computes the dimensions of locally constant functions (h0) and of cycles
  modulo differences (h1), cross-checking h0 by two independent routes:
  connected components and the exact rank of the difference operator.

* ``extract_conserved`` decides whether a uniform function is the site-wise
  sum of a conserved quantity, returning either the quantity or a typed
  violation with a witness.

* ``invariance_kernel`` computes, over a lattice window, the exact solution
  space of "the difference along every transition vanishes", which recovers
  the conserved quantities as window length grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from . import caps, linalg
from .errors import (
    CapExceededError,
    MismatchError,
    NormalizationError,
    SchemaError,
    VerificationError,
    WindowTooSmallError,
)
from .interaction import ConservedQuantity, Interaction
from .localfn import ExactSupportFunction
from .sitegraph import LATTICE_Z, SiteGraph
from .uniform import (
    UniformFunction,
    explicit_uniform,
    family_map,
    families_equal,
    xi_X,
)

# ---------------------------------------------------------------------------
# finite enumeration


@dataclass(frozen=True)
class CochainSpaceSummary:
    dim_c0: int
    dim_c1: int
    rank_d: int
    h0: int
    h1: int

    def __post_init__(self) -> None:
        if self.h0 != self.dim_c0 - self.rank_d:
            raise SchemaError("h0 violates rank-nullity")
        if self.h1 != self.dim_c1 - self.rank_d:
            raise SchemaError("h1 violates rank-nullity")


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.count = size

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)
            self.count -= 1


def h0_h1_finite(phi: Interaction, graph: SiteGraph) -> CochainSpaceSummary:
    """Exact cochain dimensions for a finite system by full enumeration.

    Builds every configuration of the graph, collects the unordered
    transition pairs, and counts components (union-find) as well as the rank
    of the difference operator (exact elimination).  The two h0 routes must
    agree or the computation aborts.
    """
    n = phi.states.n
    m = len(graph.vertices)
    size = n ** m
    limit = caps.current().max_table
    if size > limit:
        raise CapExceededError(f"{size} configurations exceed cap {limit}")
    index_of = {x: i for i, x in enumerate(graph.vertices)}
    place = [n ** (m - 1 - i) for i in range(m)]
    edges = graph.unordered_edges()
    pairs: set[tuple[int, int]] = set()
    for config_id, config in enumerate(product(range(n), repeat=m)):
        for x, y in edges:
            ix, iy = index_of[x], index_of[y]
            for ox, oy in ((ix, iy), (iy, ix)):
                for c, d in phi.targets((config[ox], config[oy])):
                    other = (
                        config_id
                        + (c - config[ox]) * place[ox]
                        + (d - config[oy]) * place[oy]
                    )
                    if other != config_id:
                        pairs.add((min(config_id, other), max(config_id, other)))
    finder = _UnionFind(size)
    for i, j in pairs:
        finder.union(i, j)
    reducer = linalg.RowReducer()
    for i, j in sorted(pairs):
        reducer.add({i: -1, j: 1})
    rank = reducer.rank
    if finder.count != size - rank:
        raise VerificationError("component count and difference rank disagree")
    return CochainSpaceSummary(
        dim_c0=size,
        dim_c1=len(pairs),
        rank_d=rank,
        h0=finder.count,
        h1=len(pairs) - rank,
    )


# ---------------------------------------------------------------------------
# extraction of conserved quantities

CONSERVED = "conserved"
UNEQUAL_SINGLE_SITE = "unequal-single-site"
NONZERO_MULTI_SITE = "nonzero-multi-site"
NOT_CONSERVED_PAIR = "not-conserved-pair"
NOT_INVARIANT = "not-invariant"

VIOLATION_KINDS = (
    UNEQUAL_SINGLE_SITE,
    NONZERO_MULTI_SITE,
    NOT_CONSERVED_PAIR,
    NOT_INVARIANT,
)


@dataclass(frozen=True)
class ExtractionResult:
    """Either a conserved quantity or a typed violation with a witness."""

    outcome: str
    xi: ConservedQuantity | None = None
    witness: object = None

    @property
    def is_conserved(self) -> bool:
        return self.outcome == CONSERVED


def extract_conserved(f: UniformFunction, phi: Interaction) -> ExtractionResult:
    """Decide whether f is the site-wise sum of a conserved quantity.

    Checks run from cheapest to most structural: all single-site components
    must agree, every larger component must vanish, and the common
    single-site table must have constant pair sums along the interaction.
    A conserved outcome is re-verified componentwise against the
    reassembled site-wise sum.
    """
    if f.states != phi.states:
        raise MismatchError("function and interaction disagree on the state space")
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
            return ExtractionResult(
                outcome=UNEQUAL_SINGLE_SITE, witness=(ref_site, x)
            )
    for key in sorted(fam, key=lambda k: (len(k), k)):
        if len(key) >= 2:
            return ExtractionResult(outcome=NONZERO_MULTI_SITE, witness=key)
    xi = ConservedQuantity(states=f.states, values=ref, base_index=f.base_index)
    for edge in sorted(phi.edges):
        (a, b), (c, d) = edge
        if xi.values[a] + xi.values[b] != xi.values[c] + xi.values[d]:
            return ExtractionResult(outcome=NOT_CONSERVED_PAIR, witness=edge)
    rebuilt = xi_X(xi, f.graph, f.base_index)
    if not families_equal(f, rebuilt):
        return ExtractionResult(outcome=NOT_INVARIANT, witness=None)  # defensive
    return ExtractionResult(outcome=CONSERVED, xi=xi)


# ---------------------------------------------------------------------------
# invariance kernel over a lattice window


@dataclass(frozen=True)
class KernelReport:
    window: tuple[int, int]
    k: int
    radius: int
    probe_bound: int
    inner_window: tuple[int, int]
    unknown_count: int
    constraint_rank: int
    dimension: int
    basis: tuple[UniformFunction, ...]


def _candidate_supports(graph: SiteGraph, radius: int) -> list[tuple[int, ...]]:
    """Nonempty site sets of diameter <= radius, sorted by (size, sites).

    On a range-k lattice the diameter condition is exactly span <= k * radius.
    """
    verts = list(graph.vertices)
    vset = set(verts)
    reach = graph.k * radius
    out = []
    for x in verts:
        others = [y for y in range(x + 1, x + reach + 1) if y in vset]
        for r in range(len(others) + 1):
            for combo in combinations(others, r):
                out.append((x, *combo))
    out.sort(key=lambda lam: (len(lam), lam))
    return out


def _patterns(region, nonbase, bound):
    """Assignments {site -> nonbase state} on <= bound sites of the region."""
    region = sorted(region)
    for r in range(min(bound, len(region)) + 1):
        for sites in combinations(region, r):
            for values in product(nonbase, repeat=r):
                yield dict(zip(sites, values))


def _kernel_unknowns(phi: Interaction, radius: int, graph: SiteGraph, base: int):
    nonbase = [s for s in range(phi.states.n) if s != base]
    unknowns = []
    for lam in _candidate_supports(graph, radius):
        for entry in product(nonbase, repeat=len(lam)):
            unknowns.append((lam, entry))
    return unknowns


def _kernel_index(unknowns):
    """Column of each unknown, and the supports through each site in order."""
    uid = {key: i for i, key in enumerate(unknowns)}
    by_site: dict[int, list] = {}
    for lam in dict.fromkeys(lam for lam, _ in unknowns):
        for s in lam:
            by_site.setdefault(s, []).append(lam)
    return uid, by_site


def _kernel_rows(
    phi: Interaction,
    radius: int,
    graph: SiteGraph,
    base: int,
    probe_bound: int,
    uid: dict,
    by_site: dict,
):
    """Constraint rows: one per (transition at an inner edge, local pattern).

    A row depends only on the configuration near its fired edge, so
    enumerating local patterns with at most ``probe_bound`` non-base sites
    yields exactly the rows contributed by every configuration of that
    support bound.

    No row is emitted for exchanging two distant sites: for an exchangeable
    interaction such a row already lies in the span of these.  Let x < y be
    inner sites and P a pattern.  ``swap_path`` turns P into P^{xy} by
    transitions at inner edges between x and y, and the row of the swap is
    the telescoping sum of their rows.  The generator emits a step's row, up
    to sign, when either end of the step has at most ``probe_bound``
    non-base sites near the fired edge.  So the swap row is in the span
    whenever no two consecutive pairs on a ``pair_exchange_path`` carry more
    non-base states than the swapped pair.  Every builtin meets this: each
    of its swaps is a single interaction edge.
    """
    a, b = graph.window
    k = graph.k
    margin = k * radius
    lo, hi = a + margin, b - margin
    nonbase = [s for s in range(phi.states.n) if s != base]
    reach = k * radius

    def region_around(x, y):
        return [
            s
            for s in range(min(x, y) - reach, max(x, y) + reach + 1)
            if a <= s <= b and (abs(s - x) <= reach or abs(s - y) <= reach)
        ]

    def row_for(before: dict, after: dict, delta) -> dict:
        row: dict[int, int] = {}
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

    # single transitions whose fired edge sits in the inner window
    for x, y in graph.unordered_edges():
        if not (lo <= x and y <= hi):
            continue
        region = region_around(x, y)
        for pattern in _patterns(region, nonbase, probe_bound):
            seen = set()
            for ox, oy in ((x, y), (y, x)):
                pair = (pattern.get(ox, base), pattern.get(oy, base))
                for c, d in phi.targets(pair):
                    after = dict(pattern)
                    for site, state in ((ox, c), (oy, d)):
                        if state == base:
                            after.pop(site, None)
                        else:
                            after[site] = state
                    key = tuple(sorted(after.items()))
                    if key in seen:
                        continue
                    seen.add(key)
                    delta = [s for s in (x, y) if pattern.get(s, base) != after.get(s, base)]
                    if not delta:
                        continue
                    row = row_for(pattern, after, delta)
                    if row:
                        yield row


def invariance_kernel(
    phi: Interaction,
    radius: int,
    graph: SiteGraph,
    base: int,
    probe_bound: int | None = None,
) -> KernelReport:
    """Solution space of "every transition difference vanishes" on a window.

    Unknowns are the exact-support table entries of all candidate components
    inside the window.  Constraints come from transitions fired inside the
    inner window (so no component pokes outside the window); composite
    exchange moves add no rank, as ``_kernel_rows`` shows.  Components not
    contained in the inner window are boundary artifacts; the reported basis
    is the canonical basis of the kernel projected onto the inner window.
    """
    if graph.kind != LATTICE_Z:
        raise SchemaError("invariance kernel needs an integer-lattice window")
    if not isinstance(radius, int) or radius < 0:
        raise SchemaError("radius must be a nonnegative integer")
    if not 0 <= base < phi.states.n:
        raise SchemaError(f"base index {base} out of range")
    a, b = graph.window
    if b - a < 4 * (radius + 1):
        raise WindowTooSmallError(
            f"window length {b - a} below the minimum {4 * (radius + 1)}"
        )
    p = radius + 3 if probe_bound is None else probe_bound
    if not isinstance(p, int) or p < 1:
        raise SchemaError("probe bound must be a positive integer")
    unknowns = _kernel_unknowns(phi, radius, graph, base)
    limit = caps.current().max_unknowns
    if len(unknowns) > limit:
        raise CapExceededError(f"{len(unknowns)} unknowns exceed cap {limit}")
    uid, by_site = _kernel_index(unknowns)
    reducer = linalg.RowReducer()
    for row in _kernel_rows(phi, radius, graph, base, p, uid, by_site):
        reducer.add(row)
    kernel_vectors = linalg.nullspace_of(reducer, len(unknowns))
    margin = graph.k * radius
    lo, hi = a + margin, b - margin
    inner_cols = [
        i for i, (lam, _) in enumerate(unknowns) if lo <= lam[0] and lam[-1] <= hi
    ]
    projected = []
    for vec in kernel_vectors:
        row = {
            new: vec[old] for new, old in enumerate(inner_cols) if vec[old]
        }
        projected.append(row)
    basis_vectors = linalg.rref_basis(projected, len(inner_cols))
    states = phi.states
    basis = []
    for vec in basis_vectors:
        tables: dict[tuple, list[Fraction]] = {}
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
        probe_bound=p,
        inner_window=(lo, hi),
        unknown_count=len(unknowns),
        constraint_rank=reducer.rank,
        dimension=len(basis_vectors),
        basis=tuple(basis),
    )
