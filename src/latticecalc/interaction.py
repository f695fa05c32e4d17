"""State spaces, interactions and their conserved quantities.

An interaction is a symmetric set of directed edges between ordered pairs of
states: an edge ((a, b), (c, d)) says that two neighboring sites holding
(a, b) may move to (c, d).  A conserved quantity assigns a rational to each
state so that the pair sum is constant along every edge; equivalently its
pair sum is constant on the connected components of the pair graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from . import linalg
from .errors import (
    AsymmetricEdgesError,
    NormalizationError,
    NotExchangeableError,
    SchemaError,
    UnknownStateError,
)
from .rationals import ensure_fraction, format_rational

PairIdx = tuple[int, int]
PhiEdge = tuple[PairIdx, PairIdx]


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite set of state labels, optionally with a marked base state."""

    labels: tuple[str, ...]
    base_index: int | None = None

    def __post_init__(self) -> None:
        if not self.labels:
            raise SchemaError("state space needs at least one label")
        if any(not isinstance(s, str) or not s for s in self.labels):
            raise SchemaError("state labels must be nonempty strings")
        if len(set(self.labels)) != len(self.labels):
            raise SchemaError("duplicate state labels")
        if self.base_index is not None and not 0 <= self.base_index < len(self.labels):
            raise SchemaError(f"base index {self.base_index} out of range")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownStateError(f"unknown state label {label!r}") from None


def state_space(labels, base: str | None = None) -> StateSpace:
    labels = tuple(labels)
    base_index = None
    if base is not None:
        if base not in labels:
            raise UnknownStateError(f"base {base!r} not among the state labels")
        base_index = labels.index(base)
    return StateSpace(labels=labels, base_index=base_index)


@dataclass(frozen=True)
class Interaction:
    """Symmetric digraph on ordered state pairs, edges stored by state index."""

    states: StateSpace
    edges: frozenset[PhiEdge]

    def __post_init__(self) -> None:
        n = self.states.n
        for (a, b), (c, d) in self.edges:
            for idx in (a, b, c, d):
                if not 0 <= idx < n:
                    raise UnknownStateError(f"state index {idx} out of range")
            if ((c, d), (a, b)) not in self.edges:
                raise AsymmetricEdgesError(
                    f"missing reverse of edge (({a},{b}),({c},{d}))"
                )

    @cached_property
    def pair_targets(self) -> dict[PairIdx, tuple[PairIdx, ...]]:
        out: dict[PairIdx, list[PairIdx]] = {}
        for src, dst in self.edges:
            out.setdefault(src, []).append(dst)
        return {src: tuple(sorted(dsts)) for src, dsts in out.items()}

    def targets(self, pair: PairIdx) -> tuple[PairIdx, ...]:
        return self.pair_targets.get(pair, ())


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
    if not isinstance(doc, dict):
        raise SchemaError("interaction document must be an object")
    try:
        labels = list(doc["states"])
        raw_edges = list(doc["edges"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"interaction document needs 'states' and 'edges': {exc}") from exc
    states = state_space(labels, doc.get("base"))
    edges = []
    for item in raw_edges:
        try:
            (a, b), (c, d) = item
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad edge entry {item!r}") from exc
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


@dataclass(frozen=True)
class PairComponents:
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
        n = self.n_states
        return [
            (i // n, i % n)
            for i, c in enumerate(self.component_id)
            if c == cid
        ]


def pair_components(phi: Interaction) -> PairComponents:
    """Connected components of the pair graph, with deterministic ids."""
    n = phi.states.n
    ids = [-1] * (n * n)
    count = 0
    for a, b in product(range(n), repeat=2):
        start = a * n + b
        if ids[start] != -1:
            continue
        ids[start] = count
        queue = deque([(a, b)])
        while queue:
            pair = queue.popleft()
            for c, d in phi.targets(pair):
                if ids[c * n + d] == -1:
                    ids[c * n + d] = count
                    queue.append((c, d))
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

    Breadth-first with neighbors scanned in sorted order, so ties are broken
    lexicographically.  Raises NotExchangeableError when no path exists.
    """
    start, goal = (s1, s2), (s2, s1)
    if start == goal:
        return []
    parents: dict[PairIdx, tuple[PairIdx, PhiEdge]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in phi.targets(cur):
            if nxt in seen:
                continue
            seen.add(nxt)
            parents[nxt] = (cur, (cur, nxt))
            if nxt == goal:
                path = []
                node = goal
                while node != start:
                    prev, edge = parents[node]
                    path.append(edge)
                    node = prev
                return path[::-1]
            queue.append(nxt)
    labels = phi.states.labels
    raise NotExchangeableError(
        f"({labels[s2]!r}, {labels[s1]!r}) is unreachable from ({labels[s1]!r}, {labels[s2]!r})"
    )


@dataclass(frozen=True)
class ConservedQuantity:
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
            if not 0 <= self.base_index < self.states.n:
                raise SchemaError(f"base index {self.base_index} out of range")
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

    def pair_sum_constant(self, phi: Interaction) -> bool:
        """True when the pair sum is constant along every interaction edge."""
        return all(
            self.values[a] + self.values[b] == self.values[c] + self.values[d]
            for (a, b), (c, d) in phi.edges
        )


def consv_basis(phi: Interaction, base: int) -> list[ConservedQuantity]:
    """Canonical basis of conserved quantities vanishing at the base state.

    The basis is the reduced echelon form (over the declared state order) of
    the nullspace of the pair-sum constraints together with the base
    normalization, so equal inputs always produce identical bases.
    """
    n = phi.states.n
    if not 0 <= base < n:
        raise UnknownStateError(f"state index {base} out of range")
    rows: list[dict[int, int]] = [{base: 1}]
    for (a, b), (c, d) in sorted(phi.edges):
        row: dict[int, int] = {}
        for idx, sign in ((a, 1), (b, 1), (c, -1), (d, -1)):
            new = row.get(idx, 0) + sign
            if new:
                row[idx] = new
            else:
                row.pop(idx, None)
        if row:
            rows.append(row)
    return [
        ConservedQuantity(states=phi.states, values=vec, base_index=base)
        for vec in linalg.nullspace(rows, n)
    ]


# ---------------------------------------------------------------------------
# built-in interactions

BUILTIN_IDS = ("exclusion", "multispecies:<kappa>", "two-species-ac", "quastel2")


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
        raw = name.split(":", 1)[1]
        if not raw.isdigit() or int(raw) < 1:
            raise SchemaError(f"bad species count in {name!r}")
        return _multispecies(int(raw))
    if name == "two-species-ac":
        return _two_species_annihilation_creation()
    if name == "quastel2":
        return _quastel_two_species()
    raise SchemaError(f"unknown built-in interaction {name!r}")
