"""Site graphs: connected, locally finite symmetric digraphs of sites.

Four kinds are supported.  ``explicit`` graphs list their vertices and edges
outright; ``path`` and ``cycle`` are finite integer graphs; ``lattice_z`` is a
finite window [a, b] of the integer lattice whose edges join sites at distance
at most k, a truncated view of an unbounded graph (``is_window_of_infinite``).
``are_sites`` is the one rule for what a site is: an ``int`` (never a
``bool``) or a ``str``, one kind per graph or support.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import chain

from . import caps
from .errors import (
    AsymmetricEdgesError,
    Record,
    SchemaError,
    UnknownVertexError,
)
from .rationals import ensure_fraction, parse_int, parse_list, parse_object, require_int

Site = int | str


def are_sites(sites) -> bool:
    """True when ``sites`` are all ``int`` (never ``bool``) or all ``str``,
    as the empty collection is; every check of what a site is comes here."""
    kinds = {type(x) for x in sites}
    return kinds <= {int} or kinds <= {str}


EXPLICIT = "explicit"
PATH = "path"
CYCLE = "cycle"
LATTICE_Z = "lattice_z"

_KINDS = (EXPLICIT, PATH, CYCLE, LATTICE_Z)


class SiteGraph(Record):
    kind: str
    vertices: tuple[Site, ...]
    edges: frozenset[tuple[Site, Site]]
    k: int | None = None
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown graph kind {self.kind!r}")
        if not self.vertices:
            raise SchemaError("graph needs at least one vertex")
        if not are_sites(self.vertices):
            raise SchemaError("vertices must be all integers or all strings")
        if len(set(self.vertices)) != len(self.vertices):
            raise SchemaError("duplicate vertices")
        self.require_vertex(*chain.from_iterable(self.edges))
        for x, y in self.edges:
            if x == y:
                raise SchemaError(f"self-loop at {x!r}")
            if (y, x) not in self.edges:
                raise AsymmetricEdgesError(f"missing reverse of edge ({x!r}, {y!r})")
        if len(dict(self._parents(self.vertices[0]))) != len(self.vertices):
            raise SchemaError("graph is not connected")

    @property
    def is_window_of_infinite(self) -> bool:
        return self.kind == LATTICE_Z

    def _parents(self, x: Site):
        """(site, parent) pairs breadth-first from x, starting with (x, None);
        neighbors are scanned in sorted order, which fixes how ties break."""
        self.require_vertex(x)
        return breadth_first(x, self._adjacency.__getitem__)

    @cached_property
    def _adjacency(self) -> dict[Site, tuple[Site, ...]]:
        out: dict[Site, list[Site]] = {x: [] for x in self.vertices}
        for x, y in self.edges:
            out[x].append(y)
        return {x: tuple(sorted(ys)) for x, ys in out.items()}

    @cached_property
    def _vertex_set(self) -> frozenset[Site]:
        return frozenset(self.vertices)

    def require_vertex(self, *sites: Site) -> None:
        """Refuse ``sites`` unless each is a vertex: ``True`` and ``1.0`` are not 1."""
        if are_sites((self.vertices[0], *sites)) and self._vertex_set.issuperset(sites):
            return
        for x in sites:  # name the first site that is not a vertex
            if not (are_sites((self.vertices[0], x)) and x in self._vertex_set):
                raise UnknownVertexError(f"not a vertex: {x!r}")

    def parse_site(self, token) -> Site:
        """The site a document or command-line token names, not checked for
        membership: integer-vertex graphs read strings through ``parse_int``."""
        bad = f"{token!r} cannot name a site of this graph"
        if are_sites((self.vertices[0], token)):
            return token
        if isinstance(token, str):  # so the graph's sites are integers
            return parse_int(token, bad)
        raise SchemaError(bad)

    @cached_property
    def _unordered_edges(self) -> tuple[tuple[Site, Site], ...]:
        return tuple(sorted({tuple(sorted(e)) for e in self.edges}))  # type: ignore[arg-type]

    def unordered_edges(self) -> list[tuple[Site, Site]]:
        """Each edge once, endpoints sorted, the list sorted."""
        return list(self._unordered_edges)


def explicit_graph(vertices, edges, symmetry: str = "lenient") -> SiteGraph:
    """Build an explicit graph; ``lenient`` symmetry adds missing reverse edges."""
    vs = tuple(vertices)
    es = {(x, y) for x, y in edges}
    if symmetry == "lenient":
        es |= {(y, x) for x, y in es}
    elif symmetry != "strict":
        raise SchemaError(f"unknown symmetry mode {symmetry!r}")
    return SiteGraph(kind=EXPLICIT, vertices=vs, edges=frozenset(es))


def _integer_graph(kind: str, *fields: int, sized=None) -> SiteGraph:
    """The ``kind`` graph of ``fields`` (n, or k, a, b for a window), checked first:
    sites a..b, each joined to the sites d = 1..min(k, b − a) above it, a cycle's a to b
    too.  ``max_bfs``, then ``sized``, see the site count before any site is listed."""
    if kind == LATTICE_Z:
        k, a, b = fields
        require_int(k, "lattice range k must be an integer >= 1, got {!r}", 1)
        bad = "window [{!r}, {!r}] is not a nonempty integer range"
        require_int(b, bad, require_int(a, bad, None, fields=(a, b)), fields=(a, b))
    else:
        (n,), low = fields, 3 if kind == CYCLE else 1
        require_int(n, f"{kind} graph needs an integer n >= {low}, got {{!r}}", low)
        k, a, b = 1, 0, n - 1
    caps.require("max_bfs", b - a + 1, "a graph of {} sites exceeds cap {}")
    if sized is not None:
        sized(b - a + 1)
    offsets = [*range(1, min(k, b - a) + 1), *([b - a] if kind == CYCLE else [])]
    edges = frozenset(chain.from_iterable(((i, i + d), (i + d, i))
                                          for d in offsets for i in range(a, b + 1 - d)))
    window = {"k": k, "window": (a, b)} if kind == LATTICE_Z else {}
    return SiteGraph(kind=kind, vertices=tuple(range(a, b + 1)), edges=edges, **window)


def path_graph(n: int) -> SiteGraph:
    return _integer_graph(PATH, n)


def cycle_graph(n: int) -> SiteGraph:
    return _integer_graph(CYCLE, n)


def lattice_window(k: int, a: int, b: int) -> SiteGraph:
    """Window [a, b] of the integer lattice with edges 1 <= |i - j| <= k."""
    return _integer_graph(LATTICE_Z, k, a, b)


def breadth_first(start, step):
    """Yield (node, parent) breadth-first from start, starting with
    (start, None).  ``step(node)`` lists a node's neighbors in the order that
    breaks ties, so the same graph always gives the same search."""
    seen = {start}
    yield start, None
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in step(cur):
            if nxt not in seen:
                seen.add(nxt)
                yield nxt, cur
                queue.append(nxt)


def path_to(start, goal, step) -> list | None:
    """Nodes of the path from start to goal that ``breadth_first`` finds, a
    shortest one; None when goal is unreachable."""
    parents = {}
    for node, parent in breadth_first(start, step):
        parents[node] = parent
        if node == goal:
            path = [goal]
            while path[-1] != start:
                path.append(parents[path[-1]])
            return path[::-1]
    return None


def shortest_path(g: SiteGraph, x: Site, y: Site) -> list[Site]:
    """Vertices of a shortest path from x to y, ties broken by sorted neighbors."""
    g.require_vertex(y, x)
    return path_to(x, y, g._adjacency.__getitem__)


def distance(g: SiteGraph, x: Site, y: Site) -> int:
    """Graph distance (number of edges on a shortest path)."""
    return len(shortest_path(g, x, y)) - 1


def ball(g: SiteGraph, x: Site, radius) -> frozenset[Site]:
    """Sites at distance strictly less than ``radius`` from x.

    The strict inequality means ``ball(g, x, 0)`` is empty and
    ``ball(g, x, 1)`` is ``{x}``.  ``radius`` is exact: an int or a Fraction.
    """
    r = ensure_fraction(radius)
    if r < 0:
        raise SchemaError("radius must be nonnegative")
    depth: dict[Site, int] = {}
    for site, parent in g._parents(x):
        d = 0 if parent is None else depth[parent] + 1
        if d >= r:
            break
        depth[site] = d
    return frozenset(depth)


def diameter_of(g: SiteGraph, sites) -> int:
    """Max pairwise distance within ``sites``; 0 for the empty set and singletons."""
    sites = list(sites)
    g.require_vertex(*sites)
    best = 0
    for i, x in enumerate(sites):
        for y in sites[i + 1 :]:
            d = distance(g, x, y)
            if d > best:
                best = d
    return best


# each kind's required and optional document keys
_GRAPH_KEYS = {LATTICE_Z: (("kind", "window"), ("k",)), PATH: (("kind", "n"), ()),
               CYCLE: (("kind", "n"), ()),
               EXPLICIT: (("kind", "vertices", "edges"), ("symmetry",))}


def load_graph(doc: dict) -> SiteGraph:
    """Build a graph from its JSON document form."""
    kind = parse_object(doc, "graph document", ("kind",))["kind"]
    if kind not in _KINDS:
        raise SchemaError(f"unknown graph kind {kind!r}")
    parse_object(doc, f"{kind} graph document", *_GRAPH_KEYS[kind])
    if kind == LATTICE_Z:
        a, b = parse_list(doc["window"], "a lattice 'window' must list two integers", 2)
        return lattice_window(doc.get("k", 1), a, b)
    if kind in (PATH, CYCLE):
        return _integer_graph(kind, doc["n"])
    vertices = parse_list(doc["vertices"], "explicit graph 'vertices' must be a list")
    bad = "explicit graph 'edges' must be a list of two-vertex lists"
    edges = [parse_list(e, bad, 2) for e in parse_list(doc["edges"], bad)]
    for edge in edges:
        if not are_sites([*vertices[:1], *edge]):
            raise SchemaError(f"explicit graph edge {edge!r} does not join two sites "
                              "of the vertices' kind")
    return explicit_graph(vertices, edges, doc.get("symmetry", "lenient"))


def graph_to_document(g: SiteGraph) -> dict:
    if g.kind == LATTICE_Z:
        return {"kind": LATTICE_Z, "k": g.k, "window": list(g.window)}
    if g.kind in (PATH, CYCLE):
        return {"kind": g.kind, "n": len(g.vertices)}
    return {
        "kind": EXPLICIT,
        "vertices": list(g.vertices),
        "edges": [list(e) for e in sorted(g.edges)],
        "symmetry": "strict",
    }
