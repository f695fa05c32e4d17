"""Uniform functions: families of exact-support components over a site graph.

A uniform function of radius R is a family {support -> exact-support
component} whose supports all have diameter at most R.  Two representations
are carried:

* ``explicit`` lists every component outright;
* ``translated`` (integer-lattice windows only) lists templates anchored at
  site 0, standing for every integer translate that fits inside the window.

Configurations assign a state to each site and agree with a designated base
state away from a finite support.  Evaluation sums the components contained
in a configuration's support; the difference of a uniform function along a
pair of configurations sums only the components meeting the sites that
changed, which is what makes the family meaningful on windows of unbounded
lattices.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property

from .errors import (
    LocalityError,
    MismatchError,
    NormalizationError,
    Record,
    SchemaError,
    SupportError,
    require_same_system,
)
from .interaction import ConservedQuantity, StateSpace
from .localfn import ExactSupportFunction, LocalFunction, assemble, expand
from .rationals import format_rational, parse_list, parse_object, parse_rational, require_int
from .sitegraph import LATTICE_Z, Site, SiteGraph, are_sites, ball, diameter_of

EXPLICIT = "explicit"
TRANSLATED = "translated"
_LISTED = {EXPLICIT: "components", TRANSLATED: "template"}  # each kind's list of components

ComponentKey = tuple[Site, ...]


# ---------------------------------------------------------------------------
# configurations


class Configuration(Record):
    """Finite-support assignment of states to the sites of a graph.

    ``assignments`` holds (site, state index) pairs sorted by site, never
    containing the base state, so equal configurations have equal encodings.
    """

    _unhashed = ("graph", "states")

    graph: SiteGraph
    states: StateSpace
    base_index: int
    assignments: tuple[tuple[Site, int], ...]

    def __post_init__(self) -> None:
        n = self.states.n
        require_int(self.base_index, "base index {} out of range", 0, n)
        sites = [site for site, _ in self.assignments]
        self.graph.require_vertex(*sites)
        for site, state in self.assignments:
            require_int(state, "state index {} out of range", 0, n)
            if state == self.base_index:
                raise SchemaError(f"assignment at {site!r} equals the base state")
        if sites != sorted(set(sites)):
            raise SchemaError("assignments must be sorted by site")

    @cached_property
    def _lookup(self) -> dict[Site, int]:
        return dict(self.assignments)

    def support(self) -> tuple[Site, ...]:
        return tuple(site for site, _ in self.assignments)

    def state_at(self, site: Site) -> int:
        self.graph.require_vertex(site)
        return self._lookup.get(site, self.base_index)

    def with_sites(self, updates: Mapping[Site, int]) -> "Configuration":
        return configuration(
            self.graph, self.states, self.base_index, {**self._lookup, **updates}
        )


def configuration(
    graph: SiteGraph, states: StateSpace, base: int, assignments: Mapping[Site, int] = ()
) -> Configuration:
    """Every given site must be a vertex, whatever its state; the rest hold ``base``."""
    table = dict(assignments)
    graph.require_vertex(*table)
    return Configuration(
        graph=graph,
        states=states,
        base_index=base,
        assignments=tuple(sorted((s, v) for s, v in table.items() if v != base)),
    )


# ---------------------------------------------------------------------------
# uniform functions


def _lattice_diameter(template: ComponentKey, k: int) -> int:
    if len(template) < 2:
        return 0
    span = max(template) - min(template)
    return -(-span // k)


class UniformFunction(Record):
    states: StateSpace
    graph: SiteGraph
    base_index: int
    radius: int
    kind: str
    components: tuple[tuple[ComponentKey, ExactSupportFunction], ...]

    def __post_init__(self) -> None:
        if self.kind not in (EXPLICIT, TRANSLATED):
            raise SchemaError(f"unknown uniform-function kind {self.kind!r}")
        require_int(self.radius, "radius must be a nonnegative integer")
        require_int(self.base_index, "base index {} out of range", 0, self.states.n)
        if self.kind == TRANSLATED and self.graph.kind != LATTICE_Z:
            raise SchemaError("translated families require an integer-lattice window")
        seen: set[ComponentKey] = set()
        for key, comp in self.components:
            if key in seen:
                raise SchemaError(f"duplicate component support {key}")
            seen.add(key)
            # keys are sites of the graph's kind, so all of one kind and sortable
            if comp.support != key or not are_sites((self.graph.vertices[0], *key)):
                raise SupportError(f"component keyed {key} has support {comp.support}")
            require_same_system(comp, self, "component and family")
            if comp.is_zero() and key != ():
                raise SchemaError(f"zero component at {key} (drop it)")
            if self.kind == TRANSLATED:
                if not key:
                    raise SchemaError("translated families cannot carry a constant term")
                if min(key) != 0:
                    raise SchemaError(f"template {key} is not anchored at 0")
                if _lattice_diameter(key, self.graph.k) > self.radius:
                    raise LocalityError(f"template {key} exceeds radius {self.radius}")
            elif key and diameter_of(self.graph, key) > self.radius:
                raise LocalityError(f"support {key} exceeds radius {self.radius}")
        order = [(len(key), key) for key, _ in self.components]
        if order != sorted(order):
            raise SchemaError("components must be sorted by (size, support)")

    def component_map(self) -> dict[ComponentKey, ExactSupportFunction]:
        return dict(self.components)

    def constant_term(self) -> Fraction:
        for key, comp in self.components:
            if key == ():
                return comp.table[0]
        return Fraction(0)


def _uniform(kind, states, graph, base, radius, components) -> UniformFunction:
    """The family with zero components dropped, sorted by (size, support)."""
    if not are_sites([graph.vertices[0], *(s for key in components for s in key)]):
        raise SupportError(f"supports {list(components)} are not sites of the graph's kind")
    normalized = []
    for key, comp in components.items():
        if not isinstance(comp, ExactSupportFunction):
            comp = ExactSupportFunction(
                states=comp.states, support=comp.support, table=comp.table, base_index=base
            )
        if not comp.is_zero():
            normalized.append((tuple(key), comp))
    normalized.sort(key=lambda kv: (len(kv[0]), kv[0]))
    return UniformFunction(
        states=states,
        graph=graph,
        base_index=base,
        radius=radius,
        kind=kind,
        components=tuple(normalized),
    )


def _summed(states, base, pieces) -> dict[ComponentKey, ExactSupportFunction]:
    """Exact-support components from (support, table) pieces summed by
    support; ``_uniform`` drops the ones whose tables cancel."""
    agg: dict[ComponentKey, list[Fraction]] = {}
    for key, table in pieces:
        slot = agg.get(key)
        if slot is None:
            agg[key] = list(table)
        else:
            for i, v in enumerate(table):
                slot[i] += v
    return {
        key: ExactSupportFunction(
            states=states, support=key, table=tuple(tab), base_index=base
        )
        for key, tab in agg.items()
    }


def explicit_uniform(
    states: StateSpace,
    graph: SiteGraph,
    base: int,
    radius: int,
    components: Mapping[ComponentKey, LocalFunction],
) -> UniformFunction:
    """Canonical explicit family; zero components are dropped, order normalized."""
    return _uniform(EXPLICIT, states, graph, base, radius, components)


def translated_uniform(
    states: StateSpace,
    graph: SiteGraph,
    base: int,
    radius: int,
    templates: Mapping[ComponentKey, LocalFunction],
) -> UniformFunction:
    """Canonical translated family of templates anchored at site 0."""
    return _uniform(TRANSLATED, states, graph, base, radius, templates)


def zero_uniform(
    states: StateSpace, graph: SiteGraph, base: int, radius: int = 0
) -> UniformFunction:
    return explicit_uniform(states, graph, base, radius, {})


def _placed(f: UniformFunction, sites):
    """Yield ``(placement, component)`` for each component of f that meets
    the set ``sites``: explicit components where they are listed, translated
    templates at every anchor that puts them on one of ``sites`` and keeps
    them inside the window.  The constant term meets no site.
    """
    if f.kind == EXPLICIT:
        for key, comp in f.components:
            if not sites.isdisjoint(key):
                yield key, comp
        return
    a, b = f.graph.window
    for template, comp in f.components:
        span = template[-1]
        for t in sorted({d - s for d in sites for s in template}):
            # a translate poking out of the window is left out: outside it
            # every configuration holds the base state, so it vanishes there
            if a <= t and t + span <= b:
                yield tuple(s + t for s in template), comp


def family_items(f: UniformFunction) -> list[tuple[ComponentKey, ExactSupportFunction]]:
    """The family as explicit (support, component) pairs.

    Translated families are materialized over the window: one copy of each
    template for every integer translate that fits inside [a, b].
    """
    out = [(key, comp) for key, comp in f.components if not key]
    for placed, comp in _placed(f, frozenset(f.graph.vertices)):
        out.append((placed, comp if placed == comp.support else comp.replace(support=placed)))
    out.sort(key=lambda kv: (len(kv[0]), kv[0]))
    return out


def family_map(f: UniformFunction) -> dict[ComponentKey, ExactSupportFunction]:
    return dict(family_items(f))


def families_equal(f: UniformFunction, g: UniformFunction) -> bool:
    """Componentwise equality of the materialized families; two systems' differ."""
    try:
        require_same_system(f, g, "families")
    except MismatchError:
        return False
    left = {key: comp.table for key, comp in family_items(f)}
    right = {key: comp.table for key, comp in family_items(g)}
    return left == right


def evaluate(f: UniformFunction, eta: Configuration) -> Fraction:
    """Value of the family at a finite-support configuration.

    Only components whose support lies inside the configuration's support can
    contribute (exact-support components vanish elsewhere), so the sum is
    finite even for translated families.
    """
    require_same_system(f, eta, "function and configuration")
    held = eta._lookup  # checked sites and states: read without the public checks
    supp = set(held)
    total = f.constant_term()
    for placed, comp in _placed(f, supp):
        if supp.issuperset(placed):
            total += comp.table[comp.index_of([held[s] for s in placed])]
    return total


def difference(f: UniformFunction, eta: Configuration, eta2: Configuration) -> Fraction:
    """f(eta2) - f(eta), summed over components meeting the changed sites.

    The result ignores the constant term and never touches components away
    from the change, so it is well defined even when the window stands for an
    unbounded lattice.
    """
    require_same_system(f, eta, "function and configuration")
    require_same_system(f, eta2, "function and configuration")
    changed = {site for site, _ in set(eta.assignments) ^ set(eta2.assignments)}
    # placed sites are vertices and the states checked: read without the public checks
    base, held, held2 = f.base_index, eta._lookup, eta2._lookup
    total = Fraction(0)
    for placed, comp in _placed(f, changed):
        after = comp.index_of([held2.get(s, base) for s in placed])
        before = comp.index_of([held.get(s, base) for s in placed])
        total += comp.table[after] - comp.table[before]
    return total


def xi_X(xi: ConservedQuantity, graph: SiteGraph, base: int) -> UniformFunction:
    """Site-wise sum of a conserved quantity, as a radius-0 uniform function.

    On lattice windows the result is a translated family with the single-site
    template; on finite graphs it is the explicit family with one component
    per site.  ``xi`` must vanish at the base state.
    """
    require_int(base, "base index {} out of range", 0, xi.states.n)
    if xi.values[base] != 0:
        raise NormalizationError("conserved quantity does not vanish at the base state")
    table = tuple(xi.values)
    if not any(table):
        return zero_uniform(xi.states, graph, base)
    if graph.kind == LATTICE_Z:
        template = ExactSupportFunction(
            states=xi.states, support=(0,), table=table, base_index=base
        )
        return translated_uniform(xi.states, graph, base, 0, {(0,): template})
    comps = {
        (x,): ExactSupportFunction(
            states=xi.states, support=(x,), table=table, base_index=base
        )
        for x in graph.vertices
    }
    return explicit_uniform(xi.states, graph, base, 0, comps)


def sum_of_uniformly_local(
    system: Mapping[Site, LocalFunction],
    radius: int,
    graph: SiteGraph,
    base: int,
) -> UniformFunction:
    """Sum of a uniformly local system {x -> f_x} as an explicit family.

    Every f_x must be supported inside the (strict) ball of ``radius`` around
    x and vanish on the all-base configuration.  The component of the result
    on a support is the sum of the matching expansion components of the f_x,
    so no support of diameter above ``2 * radius`` can appear.
    """
    require_int(radius, "radius must be a nonnegative integer")
    if not system:
        raise SchemaError("empty system; pass at least one site function")
    graph.require_vertex(*system)
    sites = sorted(system)
    states = system[sites[0]].states
    require_int(base, "base index {} out of range", 0, states.n)
    over = LocalFunction.zero(states)  # carries the state space alone
    for x in sites:
        fx = system[x]
        require_same_system(fx, over, "system members")
        allowed = ball(graph, x, radius)
        if not set(fx.support) <= allowed:
            raise LocalityError(
                f"f_{x!r} has support {fx.support} outside its radius-{radius} ball"
            )
        if fx.value_at((base,) * fx.arity) != 0:
            raise NormalizationError(f"f_{x!r} does not vanish on the all-base tuple")
    pieces = (
        (key, comp.table) for x in sites for key, comp in expand(system[x], base).items()
    )
    return explicit_uniform(states, graph, base, 2 * radius, _summed(states, base, pieces))


def to_uniformly_local(f: UniformFunction) -> dict[Site, LocalFunction]:
    """Split a family into site functions f_x, weighting each component by
    1/|support| and crediting it to each of its sites.

    Summing the result back (radius ``f.radius + 1``) reproduces the nonempty
    components of f exactly; a constant term, living in the quotient by
    constants, is ignored.
    """
    pieces: dict[Site, dict[ComponentKey, LocalFunction]] = {}
    for key, comp in family_items(f):
        if not key:
            continue
        weight = Fraction(1, len(key))
        scaled = LocalFunction(
            states=comp.states,
            support=comp.support,
            table=tuple(v * weight for v in comp.table),
        )
        for x in key:
            pieces.setdefault(x, {})[key] = scaled
    return {x: assemble(parts, tuple(sorted(set().union(*parts))))
            for x, parts in sorted(pieces.items())}


def rebase(f: UniformFunction, new_base: int) -> UniformFunction:
    """Re-express the family relative to a different base state.

    Each nonempty component is re-expanded at the new base and the pieces are
    aggregated by support (translated families aggregate by translation
    class).  The constant term is carried over verbatim, which makes the map
    an involution and, on finite local functions, shifts the function by
    (value at old all-base) - (value at new all-base).

    A translated family stands for a function on Z, where after the rebase
    every site beyond the window holds the new base.  So its differences
    are those of Z: equal to the window's for a change at least k·R from
    both ends, not always nearer an end (an explicit family's always are).
    """
    require_int(new_base, "base index {} out of range", 0, f.states.n)
    if new_base == f.base_index:
        return f
    pieces = []
    for key, comp in f.components:
        if not key:
            continue
        for sub, piece in expand(comp, new_base).items():
            if not sub:
                continue
            if f.kind == TRANSLATED:
                # translated pieces are summed by translation class
                sub = tuple(s - sub[0] for s in sub)
            pieces.append((sub, piece.table))
    comps = _summed(f.states, new_base, pieces)
    # a zero constant term (always so in a translated family) is dropped
    comps[()] = ExactSupportFunction(
        states=f.states, support=(), table=(f.constant_term(),), base_index=new_base
    )
    return _uniform(f.kind, f.states, f.graph, new_base, f.radius, comps)


# ---------------------------------------------------------------------------
# document forms


def _document_support(raw) -> tuple:
    """Validate a document's support listing (must be ascending, no repeats)."""
    support = tuple(parse_list(raw, "a local function's 'support' must be a list"))
    if not are_sites(support):
        raise SchemaError(f"support {list(support)} must list all integer or all string sites")
    if support != tuple(sorted(set(support))):
        raise SchemaError(
            f"support {list(support)} must be listed in ascending order without repeats"
        )
    return support


def _parse_table(doc_table: Mapping[str, str], states: StateSpace, support) -> dict:
    entries = {}
    for key, raw in parse_object(doc_table, "a local-function 'table'").items():
        labels = key.split(",") if key else []
        if len(labels) != len(support):
            raise SchemaError(
                f"table key {key!r} has {len(labels)} states for {len(support)} sites"
            )
        entries[tuple(states.index(lbl) for lbl in labels)] = parse_rational(raw)
    return entries


def _format_table(comp: LocalFunction) -> dict[str, str]:
    labels = comp.states.labels
    return {",".join(labels[s] for s in assignment): format_rational(v)
            for assignment, v in zip(comp.assignments(), comp.table) if v}


def load_local_function(doc: dict, states: StateSpace) -> LocalFunction:
    """Parse {"support": [...], "table": {...}} into a local function."""
    parse_object(doc, "local-function document", ("support", "table"), ())
    support = _document_support(doc["support"])
    entries = _parse_table(doc["table"], states, support)
    return LocalFunction.from_entries(states, support, entries)


def local_function_to_document(f: LocalFunction) -> dict:
    return {"support": list(f.support), "table": _format_table(f)}


def load_component_list(items, states: StateSpace, base: int):
    """Parse a list of {"support": [...], "table": {...}} component documents."""
    comps: dict[ComponentKey, ExactSupportFunction] = {}
    for item in parse_list(items, "a uniform function's components must be a list"):
        fn = load_local_function(item, states)
        if fn.support in comps:
            raise SchemaError(f"duplicate component support {fn.support}")
        comps[fn.support] = ExactSupportFunction(
            states=states, support=fn.support, table=fn.table, base_index=base
        )
    return comps


def component_list_to_document(comps) -> list:
    items = sorted(comps.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return [
        {"support": list(key), "table": _format_table(comp)}
        for key, comp in items
        if not comp.is_zero() or key == ()
    ]


def load_uniform(doc: dict, states: StateSpace, graph: SiteGraph) -> UniformFunction:
    """Build a uniform function from its JSON document form; without a
    ``kind`` it is ``translated`` when it lists a ``template``."""
    what = "uniform-function document"
    kind = parse_object(doc, what).get("kind", TRANSLATED if "template" in doc else EXPLICIT)
    if kind not in (EXPLICIT, TRANSLATED):
        raise SchemaError(f"unknown uniform-function kind {kind!r}")
    parse_object(doc, f"{kind} {what}", ("base",), ("kind", "radius", _LISTED[kind]))
    base = states.index(doc["base"])
    radius = require_int(doc.get("radius", 0), "'radius' must be a nonnegative integer")
    comps = load_component_list(doc.get(_LISTED[kind], []), states, base)
    return _uniform(kind, states, graph, base, radius, comps)


def uniform_to_document(f: UniformFunction) -> dict:
    doc = {
        "kind": f.kind,
        "base": f.states.labels[f.base_index],
        "radius": f.radius,
    }
    doc[_LISTED[f.kind]] = component_list_to_document(f.component_map())
    return doc


def load_configuration(
    doc: dict, states: StateSpace, graph: SiteGraph, base: int | None = None
) -> Configuration:
    """Read {"base": ..., "assignments": {site: state}}; unlisted sites hold the
    document's base.  The result is normalised at ``base`` (default: the document's)."""
    parse_object(doc, "configuration document", ("base",), ("assignments",))
    own = states.index(doc["base"])
    raw = parse_object(doc.get("assignments", {}), "configuration 'assignments'")
    table = {graph.parse_site(key): states.index(label) for key, label in raw.items()}
    if len(table) != len(raw):
        raise SchemaError("two assignment keys name the same site")
    if base not in (None, own):  # then every unlisted site is a non-base assignment
        table = {**dict.fromkeys(graph.vertices, own), **table}
    return configuration(graph, states, own if base is None else base, table)


def configuration_to_document(eta: Configuration) -> dict:
    labels = eta.states.labels
    return {
        "base": labels[eta.base_index],
        "assignments": {str(site): labels[state] for site, state in eta.assignments},
    }
