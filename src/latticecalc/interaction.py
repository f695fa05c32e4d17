"""State spaces, interactions and their conserved quantities.

An interaction is a symmetric set of directed edges between ordered pairs of
states: an edge ((a, b), (c, d)) says that two neighboring sites holding
(a, b) may move to (c, d).  A conserved quantity assigns a rational to each
state so that the pair sum is constant along every edge; equivalently its
pair sum is constant on the connected components of the pair graph.  Those
are the radius-0 case of the constraint rows ``_template_rows``; they and
the invariance kernel each map its one column list to their own columns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import lcm

from . import linalg
from .errors import (
    AsymmetricEdgesError,
    NormalizationError,
    NotExchangeableError,
    Record,
    SchemaError,
    UnknownStateError,
    require_same_system,
)
from .rationals import (ensure_fraction, format_rational, parse_int, parse_list, parse_object,
                        require_int)
from .sitegraph import breadth_first, path_to

PairIdx = tuple[int, int]
PhiEdge = tuple[PairIdx, PairIdx]


class StateSpace(Record):
    """Ordered finite set of state labels, optionally with a marked base state."""

    labels: tuple[str, ...]
    base_index: int | None = None

    def __post_init__(self) -> None:
        if not self.labels:
            raise SchemaError("state space needs at least one label")
        if any(not isinstance(s, str) or not s for s in self.labels):
            raise SchemaError("state labels must be nonempty strings")
        if any("," in s for s in self.labels):  # "," joins the labels of a table key
            raise SchemaError("state labels must not contain ','")
        if len(set(self.labels)) != len(self.labels):
            raise SchemaError("duplicate state labels")
        if self.base_index is not None:
            require_int(self.base_index, "base index {} out of range", 0, len(self.labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        """The index of ``label``; every state label read from a document or
        the command line comes here.  A label that is not a ``str`` is a
        ``SchemaError``, a ``str`` that names no state an ``UnknownStateError``."""
        if not isinstance(label, str):
            raise SchemaError(f"a state label is a string, got {label!r}")
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownStateError(f"unknown state label {label!r}") from None


def state_space(labels, base: str | None = None) -> StateSpace:
    if not isinstance(labels, (list, tuple)):
        raise SchemaError(f"state labels must be a list, got {type(labels).__name__}")
    states = StateSpace(labels=tuple(labels))
    return states if base is None else states.replace(base_index=states.index(base))


def load_states(doc: dict) -> StateSpace:
    """A document's ``states``, based at its ``base`` when that key is present:
    a present key is read by the label rule, so ``null`` is refused, not absent."""
    states = state_space(doc["states"])
    return states.replace(base_index=states.index(doc["base"])) if "base" in doc else states


class Interaction(Record):
    """Symmetric digraph on ordered state pairs, edges stored by state index."""

    states: StateSpace
    edges: frozenset[PhiEdge]

    def __post_init__(self) -> None:
        n = self.states.n
        for (a, b), (c, d) in self.edges:
            for idx in (a, b, c, d):
                require_int(idx, "state index {} out of range", 0, n)
            if ((c, d), (a, b)) not in self.edges:
                raise AsymmetricEdgesError(
                    f"missing reverse of edge (({a},{b}),({c},{d}))"
                )

    @cached_property
    def pair_targets(self) -> dict[PairIdx, tuple[PairIdx, ...]]:
        """Each pair's targets, in the order of the sorted edges."""
        out: dict[PairIdx, list[PairIdx]] = {}
        for src, dst in sorted(self.edges):
            out.setdefault(src, []).append(dst)
        return {src: tuple(dsts) for src, dsts in out.items()}

    def targets(self, pair: PairIdx) -> tuple[PairIdx, ...]:
        return self.pair_targets.get(pair, ())

    @cached_property
    def edge_moves(self) -> dict[PairIdx, tuple[tuple[bool, PhiEdge, PairIdx], ...]]:
        """Moves at a graph edge x < y holding (s, t), keyed by (s, t).

        Each move is ``(flipped, interaction edge, new (s, t))``, flipped when
        fired as (y, x).  Orientation (x, y) comes first, targets in sorted
        order, each new pair once; identity edges are kept.
        """
        out = {}
        for s, t in product(range(self.states.n), repeat=2):
            moves, seen = [], set()
            for flipped, pair in ((False, (s, t)), (True, (t, s))):
                for c, d in self.targets(pair):
                    new = (d, c) if flipped else (c, d)
                    if new not in seen:
                        seen.add(new)
                        moves.append((flipped, (pair, (c, d)), new))
            out[(s, t)] = tuple(moves)
        return out


def make_interaction(states: StateSpace, edges, symmetry: str = "lenient") -> Interaction:
    """Build an interaction from edge pairs of state indices.

    ``lenient`` adds the missing reverse edges, ``strict`` raises if any
    reverse edge is absent.
    """
    edge_set = {(tuple(src), tuple(dst)) for src, dst in edges}
    closure = edge_set | {(dst, src) for src, dst in edge_set}
    if symmetry == "strict":
        if closure != edge_set:
            missing = sorted(closure - edge_set)[0]
            raise AsymmetricEdgesError(f"missing reverse edge {missing}")
    elif symmetry != "lenient":
        raise SchemaError(f"unknown symmetry mode {symmetry!r}")
    return Interaction(states=states, edges=frozenset(closure))  # type: ignore[arg-type]


def load_interaction(doc: dict) -> Interaction:
    """Build an interaction from its JSON document form."""
    parse_object(doc, "interaction document", ("states", "edges"), ("base", "symmetry"))
    states = load_states(doc)
    edges = []
    for item in parse_list(doc["edges"], "interaction 'edges' must be a list"):
        bad = f"bad edge entry {item!r}: not a list of two pairs of two labels"
        (a, b), (c, d) = (parse_list(pair, bad, 2) for pair in parse_list(item, bad, 2))
        edges.append(
            ((states.index(a), states.index(b)), (states.index(c), states.index(d)))
        )
    return make_interaction(states, edges, doc.get("symmetry", "lenient"))


def interaction_to_document(phi: Interaction) -> dict:
    labels = phi.states.labels
    doc: dict = {
        "states": list(labels),
        "edges": [
            [[labels[a], labels[b]], [labels[c], labels[d]]]
            for (a, b), (c, d) in sorted(phi.edges)
        ],
        "symmetry": "strict",
    }
    if phi.states.base_index is not None:
        doc["base"] = labels[phi.states.base_index]
    return doc


class PairComponents(Record):
    """Connected components of the pair graph (S x S, edges of the interaction).

    ``component_id`` is indexed by ``a * n + b`` for the pair (a, b); ids are
    assigned in order of first appearance when pairs are scanned
    lexicographically, so id 0 always belongs to the lexicographically first
    pair.
    """

    n_states: int
    component_id: tuple[int, ...]
    count: int

    def of(self, a: int, b: int) -> int:
        return self.component_id[a * self.n_states + b]

    def members(self, cid: int) -> list[PairIdx]:
        return [divmod(i, self.n_states) for i, c in enumerate(self.component_id) if c == cid]


def pair_components(phi: Interaction) -> PairComponents:
    """Connected components of the pair graph, with deterministic ids."""
    n = phi.states.n
    ids = [-1] * (n * n)
    count = 0
    for a, b in product(range(n), repeat=2):
        if ids[a * n + b] == -1:
            for (c, d), _ in breadth_first((a, b), phi.targets):
                ids[c * n + d] = count
            count += 1
    return PairComponents(n_states=n, component_id=tuple(ids), count=count)


def is_exchangeable(phi: Interaction) -> bool:
    """True when every pair (a, b) is connected to its flip (b, a)."""
    comps = pair_components(phi)
    n = phi.states.n
    return all(
        comps.of(a, b) == comps.of(b, a) for a, b in product(range(n), repeat=2)
    )


def pair_exchange_path(phi: Interaction, s1: int, s2: int) -> list[PhiEdge]:
    """Shortest pair-graph path from (s1, s2) to (s2, s1), as a list of edges.

    The search is ``sitegraph.path_to`` over ``Interaction.targets``, which
    lists neighbors in sorted order, so ties are broken lexicographically.
    Raises NotExchangeableError when no path exists.
    """
    for s in (s1, s2):
        require_int(s, "state index {} out of range", 0, phi.states.n)
    path = path_to((s1, s2), (s2, s1), phi.targets)
    if path is not None:
        return list(zip(path, path[1:]))
    labels = phi.states.labels
    raise NotExchangeableError(
        f"({labels[s2]!r}, {labels[s1]!r}) is unreachable from ({labels[s1]!r}, {labels[s2]!r})"
    )


class ConservedQuantity(Record):
    """Rational value per state, normalized to 0 at the base state when one is fixed."""

    states: StateSpace
    values: tuple[Fraction, ...]
    base_index: int | None = None

    def __post_init__(self) -> None:
        if len(self.values) != self.states.n:
            raise SchemaError("conserved quantity must assign a value to every state")
        object.__setattr__(
            self, "values", tuple(ensure_fraction(v) for v in self.values)
        )
        if self.base_index is not None:
            require_int(self.base_index, "base index {} out of range", 0, self.states.n)
            if self.values[self.base_index] != 0:
                raise NormalizationError(
                    "conserved quantity must vanish at the base state"
                )

    def value(self, label: str) -> Fraction:
        return self.values[self.states.index(label)]

    def __getitem__(self, index: int) -> Fraction:
        return self.values[index]

    def to_document(self) -> dict:
        return {
            label: format_rational(v)
            for label, v in zip(self.states.labels, self.values)
        }

    def unconserved_edge(self, phi: Interaction) -> PhiEdge | None:
        """The first interaction edge, in sorted order, along which the pair
        sum changes, or None: each edge of ``pair_targets`` is checked, on the
        values scaled to integers."""
        require_same_system(self, phi, "quantity and interaction")
        den = lcm(*(v.denominator for v in self.values))
        w = [v.numerator * (den // v.denominator) for v in self.values]
        return next((((a, b), (c, d)) for (a, b), targets in phi.pair_targets.items()
                     for c, d in targets if w[a] + w[b] != w[c] + w[d]), None)

    def pair_sum_constant(self, phi: Interaction) -> bool:
        """True when the pair sum is constant along every interaction edge."""
        return self.unconserved_edge(phi) is None


def _candidate_supports(a: int, b: int, reach: int) -> list[tuple[int, ...]]:
    """Nonempty sets of sites in [a, b] spanning at most ``reach``, sorted by
    (size, sites): on a range-k lattice window, the sets of diameter <= R
    when ``reach`` is k·R."""
    out = []
    for x in range(a, b + 1):
        others = range(x + 1, min(x + reach, b) + 1)
        for r in range(len(others) + 1):
            for combo in combinations(others, r):
                out.append((x, *combo))
    out.sort(key=lambda lam: (len(lam), lam))
    return out


def _template_rows(phi: Interaction, reach: int, j: int, base: int):
    """``(columns, rows)``: the constraint rows at the edge (0, j) of the
    lattice, where column c is the key ``columns[c]`` = (support, entry)
    relative to 0, numbered as first seen.  Their span is that of the rows
    of every configuration.

    Fix the states at 0 and j and a move there.  The row of a configuration
    P sums, over candidate supports λ (span <= ``reach``) meeting {0, j}, a
    term that depends on P only through P on λ and vanishes unless P is
    non-base on λ.  Write S for the non-base sites of P off {0, j} and P|T
    for P with the sites of S∖T set to base.  Möbius inversion over subsets
    of S gives row(P) = Σ_{T⊆S} G_T(P|T), where G_T(P|T) = Σ_{U⊆T}
    (-1)^{|T|-|U|} row(P|U) holds exactly the terms of the λ with
    λ∖{0, j} = T.  So G_T vanishes unless T ∪ {0} or T ∪ {j} spans at most
    ``reach``: T is *admissible*.  The map row(P|U) ↔ G_U(P|U), U ⊆ T, is
    unitriangular, so the rows G_T of the admissible patterns span the rows
    of every configuration.

    A move from pattern B to A changes the sites Δ.  Its row G_T is +1 at
    (λ, A|λ) and −1 at (λ, B|λ) for each λ = T ∪ E spanning at most
    ``reach``, where E is (0,), (j,) or (0, j), meets Δ and is non-base on
    that side.  A|λ ≠ B|λ, so every entry is ±1, each sign has at most
    three, and an empty row is skipped.  The move back has the negated row,
    so only moves to a larger (c, d) fire.  Patterns come by (|T|, T), then
    values, to keep fill low.
    """
    states = range(phi.states.n)
    nonbase = [s for s in states if s != base]
    index, rows, supports = {}, [], {}
    for lam in _candidate_supports(-reach, j + reach, reach):  # T -> [(E, λ)], λ = T ∪ E
        sites = tuple(x for x in lam if x != 0 and x != j)
        if sites != lam:
            supports.setdefault(sites, []).append((tuple(x for x in lam if x in (0, j)), lam))
    for sites in sorted(supports, key=lambda sites: (len(sites), sites)):
        for s, t, *values in product(states, states, *[nonbase] * len(sites)):
            pattern = dict(zip(sites, values))
            for _, _, (c, d) in phi.edge_moves[(s, t)]:
                if (c, d) <= (s, t):
                    continue
                moved, row = {0: s != c, j: t != d}, {}
                for sign, config in ((1, {**pattern, 0: c, j: d}), (-1, {**pattern, 0: s, j: t})):
                    for ends, lam in supports[sites]:
                        if any(moved[e] for e in ends) and all(config[e] != base for e in ends):
                            key = (lam, tuple(config[x] for x in lam))
                            row[index.setdefault(key, len(index))] = sign
                if row:
                    rows.append(row)
    return list(index), rows


def consv_basis(phi: Interaction, base: int) -> list[ConservedQuantity]:
    """Canonical basis of conserved quantities vanishing at the base state.

    A conserved quantity is the radius-0 case of the invariance kernel, so the
    rows are the kernel's: the base row and ``_template_rows(phi, 0, 1, base)``
    under one column map, (λ, e) onto its translation class, the state e[0].
    The basis is the reduced echelon form of their nullspace over the
    declared state order: equal inputs give equal bases.
    """
    n = phi.states.n
    require_int(base, "state index {} out of range", 0, n)
    columns, templates = _template_rows(phi, 0, 1, base)
    fold = [e[0] for _, e in columns]
    rows = [{base: 1}, *(linalg.remap(row, fold) for row in templates)]
    return [
        ConservedQuantity(states=phi.states, values=vec, base_index=base)
        for vec in linalg.nullspace(rows, n)
    ]


# ---------------------------------------------------------------------------
# built-in interactions


def _multispecies(kappa: int) -> Interaction:
    states = state_space([str(i) for i in range(kappa + 1)], base="0")
    edges = [
        ((j, k), (k, j))
        for j, k in product(range(kappa + 1), repeat=2)
        if j != k
    ]
    return make_interaction(states, edges, symmetry="strict")


def _two_species_annihilation_creation() -> Interaction:
    states = state_space(["-1", "0", "1"], base="0")
    m, z, p = 0, 1, 2  # indices of -1, 0, +1
    pairs = [
        ((m, z), (z, m)),
        ((p, z), (z, p)),
        ((p, m), (m, p)),
        ((p, m), (z, z)),
        ((z, z), (m, p)),
    ]
    return make_interaction(states, pairs, symmetry="lenient")


def _quastel_two_species() -> Interaction:
    base = _multispecies(2)
    dropped = frozenset({((1, 2), (2, 1)), ((2, 1), (1, 2))})
    return Interaction(states=base.states, edges=base.edges - dropped)


def builtin_interaction(name: str) -> Interaction:
    """Look up a built-in interaction by id.

    Ids: ``exclusion``, ``multispecies:<kappa>``, ``two-species-ac``,
    ``quastel2``.
    """
    if name == "exclusion":
        return _multispecies(1)
    if name.startswith("multispecies:"):
        bad = f"bad species count in {name!r}"
        return _multispecies(require_int(parse_int(name.partition(":")[2], bad), bad, 1))
    if name == "two-species-ac":
        return _two_species_annihilation_creation()
    if name == "quastel2":
        return _quastel_two_species()
    raise SchemaError(f"unknown built-in interaction {name!r}")
