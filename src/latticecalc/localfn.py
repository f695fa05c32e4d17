"""Functions of finitely many sites, stored as dense rational tables.

A local function assigns a rational to every tuple of states over its support.
Tables are indexed in mixed radix: the first support site (sorted order) is
the most significant digit, states in declared order, so entry order matches
``itertools.product(range(n), repeat=arity)``.

``expand`` decomposes a local function into exact-support components: pieces
that vanish whenever any coordinate equals the chosen base state.  The pieces
are read off one in-place Möbius transform of the table, and ``assemble``
sums them back.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from itertools import combinations, product

from . import caps
from .errors import Record, SchemaError, SupportError, require_same_system
from .interaction import StateSpace
from .rationals import ensure_fraction, require_int
from .sitegraph import Site, are_sites

Assignment = tuple[int, ...]


def _sorted_support(sites, like: tuple[Site, ...] = ()) -> tuple[Site, ...]:
    """``sites`` sorted if they are distinct sites of one kind, ``like``'s if any."""
    sites = tuple(sites)
    if not are_sites(like[:1] + sites):
        raise SupportError(f"support {list(sites)} must be all integer or all string sites")
    if len(set(sites)) != len(sites):
        raise SupportError("support has repeated sites")
    return tuple(sorted(sites))


def _table_size(states: StateSpace, arity: int) -> int:
    """n ** arity, once the support and table caps allow that many entries."""
    caps.require("max_support", arity, "support of {} sites exceeds cap {}")
    size = states.n ** arity
    caps.require("max_table", size, "table of {} entries exceeds cap {}")
    return size


class LocalFunction(Record):
    states: StateSpace
    support: tuple[Site, ...]
    table: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.support != _sorted_support(self.support):
            raise SupportError("support must be sorted and duplicate-free")
        size = _table_size(self.states, len(self.support))
        if len(self.table) != size:
            raise SchemaError(
                f"table needs {size} entries for {len(self.support)} sites, got {len(self.table)}"
            )
        object.__setattr__(self, "table", tuple(ensure_fraction(v) for v in self.table))

    @property
    def arity(self) -> int:
        return len(self.support)

    def index_of(self, assignment: Assignment) -> int:
        idx = 0
        for s in assignment:
            idx = idx * self.states.n + s
        return idx

    def value_at(self, assignment: Assignment) -> Fraction:
        """The entry at ``assignment``, each state index checked by the integer rule."""
        if len(assignment) != self.arity:
            raise SupportError(
                f"assignment of length {len(assignment)} for arity {self.arity}"
            )
        n = self.states.n
        return self.table[self.index_of([require_int(s, "state index {} out of range", 0, n)
                                         for s in assignment])]

    def assignments(self):
        return product(range(self.states.n), repeat=self.arity)

    def is_zero(self) -> bool:
        return not any(self.table)

    @classmethod
    def from_function(
        cls, states: StateSpace, support, fn: Callable[[Assignment], object]
    ) -> "LocalFunction":
        supp = _sorted_support(support)
        _table_size(states, len(supp))
        table = tuple(
            ensure_fraction(fn(a)) for a in product(range(states.n), repeat=len(supp))
        )
        return cls(states=states, support=supp, table=table)

    @classmethod
    def from_entries(
        cls, states: StateSpace, support, entries: Mapping[Assignment, object]
    ) -> "LocalFunction":
        """Build from a sparse {assignment: value} map; omitted entries are
        zero.  Each table slot looks up its own assignment, so a key that is
        not an assignment of the support is refused rather than dropped."""
        arity, bad = len(_sorted_support(support)), "{!r} is not an assignment of {} sites"
        for key in entries:
            if not (isinstance(key, tuple) and len(key) == arity):
                raise SchemaError(bad.format(key, arity))
            for s in key:
                require_int(s, bad, 0, states.n, (key, arity))
        return cls.from_function(states, support, lambda a: entries.get(a, 0))

    @classmethod
    def zero(cls, states: StateSpace, support=()) -> "LocalFunction":
        supp = _sorted_support(support)
        return cls(
            states=states,
            support=supp,
            table=(Fraction(0),) * _table_size(states, len(supp)),
        )

    @classmethod
    def constant(cls, states: StateSpace, value) -> "LocalFunction":
        return cls(states=states, support=(), table=(ensure_fraction(value),))


class ExactSupportFunction(LocalFunction):
    """Local function that vanishes whenever any coordinate is the base state."""

    base_index: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not is_exact_support(self, self.base_index):
            a, v = next((a, v) for a, v in zip(self.assignments(), self.table)
                        if v and self.base_index in a)
            raise SupportError(f"entry {a} has a base coordinate but value {v}")


def is_exact_support(f: LocalFunction, base: int) -> bool:
    """True when f vanishes on every tuple with a coordinate equal to ``base``."""
    require_int(base, "base index {} out of range", 0, f.states.n)
    return not any(v for a, v in zip(f.assignments(), f.table) if base in a)


def _pinned(f: LocalFunction, keep: tuple[Site, ...], base: int) -> list[int]:
    """Table indices of f at each assignment of ``keep`` (sorted support
    sites), in ``product`` order, with every other site at the base state."""
    n = f.states.n
    indices = [f.index_of((base,) * f.arity)]
    for site in keep:
        stride = n ** (f.arity - 1 - f.support.index(site))
        indices = [i + (s - base) * stride for i in indices for s in range(n)]
    return indices


def restrict(f: LocalFunction, sites, base: int) -> LocalFunction:
    """Evaluate f with every site outside ``sites`` pinned to the base state."""
    require_int(base, "base index {} out of range", 0, f.states.n)
    wanted = set(_sorted_support(sites, f.support))
    keep = tuple(s for s in f.support if s in wanted)
    table = tuple(f.table[i] for i in _pinned(f, keep, base))
    return LocalFunction(states=f.states, support=keep, table=table)


def expand(f: LocalFunction, base: int) -> dict[tuple[Site, ...], ExactSupportFunction]:
    """Exact-support components of f relative to the base state.

    An in-place Möbius transform, one pass per site, turns the entry at each
    assignment a into the value at a of the component on the non-base sites
    of a; each component is read off with every other site at the base.  Only
    nonzero components are returned.  The empty-support one is f(all-base).
    """
    n = f.states.n
    require_int(base, "base index {} out of range", 0, n)
    table = list(f.table)
    for pos in range(f.arity):
        stride = n ** (f.arity - 1 - pos)
        for i in range(len(table)):
            digit = i // stride % n
            if digit != base:
                table[i] -= table[i + (base - digit) * stride]
    comps: dict[tuple[Site, ...], ExactSupportFunction] = {}
    for size in range(f.arity + 1):
        for lam in combinations(f.support, size):
            assigns = product(range(n), repeat=size)
            values = [0 if base in a else table[i] for a, i in zip(assigns, _pinned(f, lam, base))]
            if any(values):
                comps[lam] = ExactSupportFunction(
                    states=f.states, support=lam, table=tuple(values), base_index=base
                )
    return comps


def assemble(
    components: Mapping[tuple[Site, ...], LocalFunction],
    support,
    states: StateSpace | None = None,
) -> LocalFunction:
    """Pointwise sum of components over a common support.

    ``states`` is only needed when ``components`` is empty (the zero sum);
    given, every component must be over it, else over the first's.
    """
    supp = _sorted_support(support)
    supp_set = set(supp)
    if not (states or components):
        raise SupportError("assemble needs components or an explicit state space")
    states = states or next(iter(components.values())).states
    over = LocalFunction.zero(states)  # carries the state space alone
    for lam, comp in components.items():
        _sorted_support(lam, supp)
        require_same_system(comp, over, "components")
        if not set(lam) <= supp_set:
            raise SupportError(f"component support {lam} not contained in {supp}")
        if tuple(lam) != comp.support:
            raise SupportError(f"component keyed {lam} has support {comp.support}")
    _table_size(states, len(supp))  # the sum's table, before any entry of it
    table = []
    items = sorted(components.items(), key=lambda kv: (len(kv[0]), kv[0]))
    positioned = [(comp.table, comp.index_of, [supp.index(s) for s in lam]) for lam, comp in items]
    # the assignments are built here, so their entries need no range check
    for assignment in product(range(states.n), repeat=len(supp)):
        total = Fraction(0)
        for entries, index_of, positions in positioned:
            total += entries[index_of([assignment[p] for p in positions])]
        table.append(total)
    return LocalFunction(states=states, support=supp, table=tuple(table))
