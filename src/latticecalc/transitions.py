"""Transitions of configurations along graph edges.

A transition fires an interaction edge at a graph edge: the two endpoint
states move together, every other site is untouched.  Enumeration, reachable
components, explicit exchange paths and permutation replays all live here, as
does the probe-based invariance check for uniform functions.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, repeat

from . import caps
from .errors import (MismatchError, Record, SchemaError, UnknownVertexError, VerificationError,
                     require_same_system)
from .interaction import Interaction, PhiEdge, pair_exchange_path
from .rationals import parse_list, parse_object, require_int
from .sitegraph import Site, SiteGraph, shortest_path
from .uniform import Configuration, UniformFunction, configuration, difference


def transition_document(edge: tuple[Site, Site], phi_edge: PhiEdge, labels) -> dict:
    """The JSON form of a move: the ordered edge and the state labels."""
    (a, b), (c, d) = phi_edge
    return {"edge": list(edge), "from": [labels[a], labels[b]], "to": [labels[c], labels[d]]}


def _require_move(phi: Interaction, graph: SiteGraph, edge, phi_edge) -> None:
    """The one move rule: a transition fires an interaction edge at a graph edge."""
    if edge not in graph.edges:
        raise UnknownVertexError(f"{edge!r} is not a graph edge")
    if phi_edge not in phi.edges:
        raise MismatchError("the transition's move is not an interaction edge")


class Transition(Record):
    """The move ``phi_edge`` of ``phi`` fired at the ordered ``edge`` out of
    ``before``; ``after`` is computed from them, so it always agrees."""

    _unhashed = ("phi",)

    phi: Interaction
    before: Configuration
    edge: tuple[Site, Site]
    phi_edge: PhiEdge

    def __post_init__(self) -> None:
        require_same_system(self.before, self.phi, "configuration and interaction")
        _require_move(self.phi, self.before.graph, self.edge, self.phi_edge)
        (x, y), (source, _) = self.edge, self.phi_edge
        if (self.before.state_at(x), self.before.state_at(y)) != source:
            raise MismatchError("before-configuration disagrees with the fired edge")

    @cached_property
    def after(self) -> Configuration:
        (x, y), (_, (c, d)) = self.edge, self.phi_edge
        return self.before.with_sites({x: c, y: d})

    def to_document(self) -> dict:
        return transition_document(self.edge, self.phi_edge, self.before.states.labels)


def _read_move(doc, phi: Interaction, graph: SiteGraph):
    """The ordered edge and interaction edge a transition document names in
    the interaction's labels, checked by the move rule.  Every replay of a
    document goes through here; the caller checks the source states."""
    keys = ("edge", "from", "to")
    parse_object(doc, "transition document", keys, ())
    bad = "transition edge/from/to must each list two entries"
    (x, y), from_labels, to_labels = (parse_list(doc[key], bad, 2) for key in keys)
    edge = graph.parse_site(x), graph.parse_site(y)
    a, b, c, d = map(phi.states.index, (*from_labels, *to_labels))
    phi_edge = ((a, b), (c, d))
    _require_move(phi, graph, edge, phi_edge)
    return edge, phi_edge


class ConfigCode:
    """Configurations of a finite graph as mixed-radix integers ``range(size)``:
    one base-n digit per vertex, the first of ``graph.vertices`` most significant."""

    def __init__(self, phi: Interaction, graph: SiteGraph) -> None:
        n, m = phi.states.n, len(graph.vertices)
        self.phi, self.graph, self.n = phi, graph, n
        self.size = n**m
        powers = list(accumulate(repeat(n, m - 1), int.__mul__, initial=1))
        self.place = place = dict(zip(graph.vertices, reversed(powers)))
        # per edge x < y, at index s * n + t (the order of ``edge_moves``):
        # the moves out of (s, t) as (ordered edge, interaction edge, code offset)
        self._edges = []
        for x, y in graph.unordered_edges():
            px, py, ends = place[x], place[y], ((x, y), (y, x))
            self._edges.append((px, py, [
                tuple([
                    (ends[flipped], phi_edge, (c - s) * px + (d - t) * py)
                    for flipped, phi_edge, (c, d) in moves
                ]) if moves else ()
                for (s, t), moves in phi.edge_moves.items()
            ]))

    def encode(self, eta: Configuration) -> int:
        return sum(eta.state_at(x) * p for x, p in self.place.items())

    def decode(self, code: int, base: int) -> Configuration:
        digits = {x: code // p % self.n for x, p in self.place.items()}
        return configuration(self.graph, self.phi.states, base, digits)

    def fire(self, code: int):
        """Yield ``(edge, interaction edge, code after)`` for every move out of
        ``code``: ``Interaction.edge_moves`` at each edge, edges in sorted order."""
        n = self.n
        for px, py, table in self._edges:
            for edge, phi_edge, offset in table[code // px % n * n + code // py % n]:
                yield edge, phi_edge, code + offset

    def read(self, doc) -> tuple[int, int, tuple[int, int], int]:
        """``(place x, place y, source pair, code offset)`` of the move ``doc``
        names, checked against the graph and the interaction."""
        (x, y), ((a, b), (c, d)) = _read_move(doc, self.phi, self.graph)
        px, py = self.place[x], self.place[y]
        return px, py, (a, b), (c - a) * px + (d - b) * py

    def apply(self, move, code: int) -> int:
        """The code after the move ``read`` returned fires from ``code``."""
        px, py, source, offset = move
        if (code // px % self.n, code // py % self.n) != source:
            raise MismatchError("configuration does not match the transition source")
        return code + offset


def neighbors(phi: Interaction, eta: Configuration) -> list[Transition]:
    """Single transitions out of ``eta``, in ``ConfigCode.fire`` order:
    ``Interaction.edge_moves`` at each edge x < y, edges sorted, a flipped
    move fired as (y, x); each reachable configuration once."""
    require_same_system(eta, phi, "configuration and interaction")
    held, base = eta._lookup, eta.base_index  # the graph's own sites: no public check
    return [
        Transition(phi, eta, (y, x) if flipped else (x, y), phi_edge)
        for x, y in eta.graph.unordered_edges()
        for flipped, phi_edge, _ in phi.edge_moves[(held.get(x, base), held.get(y, base))]
    ]


class ComponentResult(Record):
    """Reachable component of a configuration; truncation is an outcome.

    ``visited`` lists the ``ConfigCode`` integers in discovery order and
    ``steps`` each discovery as (code before, edge, interaction edge, code
    after).  ``configurations`` and ``discovery`` decode them on first use.
    """

    codes: ConfigCode
    base_index: int
    visited: tuple[int, ...]
    steps: tuple[tuple[int, tuple[Site, Site], PhiEdge, int], ...]
    truncated: bool

    @cached_property
    def _decoded(self) -> dict[int, Configuration]:
        return {code: self.codes.decode(code, self.base_index) for code in self.visited}

    @cached_property
    def configurations(self) -> frozenset[Configuration]:
        return frozenset(self._decoded.values())

    @cached_property
    def discovery(self) -> tuple[Transition, ...]:
        eta, phi = self._decoded, self.codes.phi
        return tuple(
            Transition(phi, eta[u], edge, phi_edge) for u, edge, phi_edge, _ in self.steps
        )


def component_bfs(
    phi: Interaction, eta: Configuration, max_states: int | None = None
) -> ComponentResult:
    """Breadth-first enumeration of every configuration reachable from ``eta``.

    The search runs over ``ConfigCode`` integers and builds no configuration
    or transition.  Stops after ``max_states`` visited configurations
    (at least 1, the start, and at most the ``max_bfs`` cap, the default)
    and reports ``truncated=True`` rather than raising.
    """
    require_same_system(eta, phi, "configuration and interaction")
    if max_states is not None:
        require_int(max_states, "max_states must be at least 1, got {}", 1)
    cap = caps.require("max_bfs", max_states or 1, "a search of {} states exceeds cap {}")
    max_states = max_states or cap
    codes = ConfigCode(phi, eta.graph)
    start = codes.encode(eta)
    visited, seen, steps = [start], {start}, []
    truncated = False
    for cur in visited:  # the loop reaches every code appended below
        for edge, phi_edge, nxt in codes.fire(cur):
            if nxt in seen:
                continue
            if len(visited) >= max_states:
                truncated = True
                break
            seen.add(nxt)
            visited.append(nxt)
            steps.append((cur, edge, phi_edge, nxt))
        if truncated:
            break
    return ComponentResult(codes, eta.base_index, tuple(visited), tuple(steps), truncated)


def swap_path(
    phi: Interaction, eta: Configuration, x: Site, y: Site
) -> list[Transition]:
    """Transitions realizing the exchange of the states at x and y.

    Walks a shortest site path e1..eN, exchanging along e1..eN and then back
    along e(N-1)..e1; each adjacent exchange plays the interaction-edge path
    that carries (s, t) to (t, s).  The final configuration always equals
    ``eta`` with x and y swapped.
    """
    require_same_system(eta, phi, "configuration and interaction")
    expected = eta.with_sites({x: eta.state_at(y), y: eta.state_at(x)})
    if x == y:
        return []
    sites = shortest_path(eta.graph, x, y)
    hops = list(zip(sites, sites[1:]))
    schedule = hops + hops[-2::-1]
    out: list[Transition] = []
    cur = eta
    for u, v in schedule:  # sites of the graph's own path: read without the public check
        su, sv = cur._lookup.get(u, eta.base_index), cur._lookup.get(v, eta.base_index)
        if su == sv:
            continue
        for phi_edge in pair_exchange_path(phi, su, sv):
            out.append(Transition(phi, cur, (u, v), phi_edge))
            cur = out[-1].after
    if cur != expected:
        raise VerificationError("exchange schedule failed to realize the swap")  # defensive
    return out


def permutation_path(
    phi: Interaction, eta: Configuration, sigma: dict[Site, Site]
) -> list[Transition]:
    """Transitions realizing eta^sigma, where eta^sigma(x) = eta(sigma(x)).

    The permutation is decomposed into cycles (ordered by smallest member)
    and each cycle into adjacent transpositions realized by ``swap_path``.
    """
    require_same_system(eta, phi, "configuration and interaction")
    domain = set(sigma)
    if domain != set(sigma.values()):
        raise SchemaError("sigma is not a bijection of its domain")
    expected = eta.with_sites({site: eta.state_at(sigma[site]) for site in domain})
    swaps: list[tuple[Site, Site]] = []
    seen: set[Site] = set()
    for start in sorted(domain):
        cycle, x = [], start
        while x not in seen:  # empty for a site of an earlier cycle
            seen.add(x)
            cycle.append(x)
            x = sigma[x]
        swaps.extend(zip(cycle, cycle[1:]))
    out: list[Transition] = []
    cur = eta
    for u, v in swaps:
        steps = swap_path(phi, cur, u, v)
        out.extend(steps)
        if steps:
            cur = steps[-1].after
    if cur != expected:
        raise VerificationError("transposition schedule failed to realize sigma")  # defensive
    return out


class InvarianceCheck(Record):
    """Outcome of probing a uniform function against transitions.

    The probe set never exhausts the configuration space, so a passing check
    certifies invariance only over the probes; ``coverage`` records that.
    """

    invariant: bool
    witness: Transition | None
    probes_checked: int
    transitions_checked: int
    coverage: str = "probe-set-only"


def is_invariant(
    f: UniformFunction, phi: Interaction, state_probe=()
) -> InvarianceCheck:
    """Check that f does not change along any transition out of the probes."""
    require_same_system(f, phi, "function and interaction")
    probes = list(state_probe)
    checked, witness = 0, None
    for tr in (tr for eta in probes for tr in neighbors(phi, eta)):
        checked += 1
        if difference(f, tr.before, tr.after) != 0:
            witness = tr
            break
    return InvarianceCheck(invariant=witness is None, witness=witness,
                           probes_checked=len(probes), transitions_checked=checked)


def transition_from_document(
    doc: dict, phi: Interaction, eta: Configuration
) -> Transition:
    """Replay a serialized transition against the configuration it fires from."""
    return Transition(phi, eta, *_read_move(doc, phi, eta.graph))  # checks the source states
