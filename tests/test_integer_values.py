"""Every integer handed to the library as a value passes one rule,
``rationals.require_int``: an ``int``, never a ``bool``, at least its floor
and, for a state index, below the number of states.

One table of values outside that rule goes to every entry point that takes
an index, a base, a radius, a size or a cap: each must raise
``SchemaError``, never ``TypeError``, ``IndexError``, another error or a
result.  Each entry point also gets a value it accepts, so a refusal is the
value's doing.  A source scan keeps the ad hoc checks the rule replaced from
coming back.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import latticecalc
from latticecalc import errors
from latticecalc.cohomology import invariance_kernel
from latticecalc.interaction import (
    ConservedQuantity,
    Interaction,
    StateSpace,
    builtin_interaction,
    consv_basis,
    pair_exchange_path,
)
from latticecalc.localfn import LocalFunction, expand, is_exact_support, restrict
from latticecalc.rationals import require_int
from latticecalc.sitegraph import cycle_graph, lattice_window, path_graph
from latticecalc.transitions import component_bfs
from latticecalc.uniform import (
    Configuration,
    configuration,
    explicit_uniform,
    load_uniform,
    rebase,
    sum_of_uniformly_local,
    xi_X,
)

BAD_TYPES = [True, 1.0, Fraction(1)]

EXCLUSION = builtin_interaction("exclusion")
STATES = EXCLUSION.states  # two states, base "0"
PATH3 = path_graph(3)
WINDOW = lattice_window(1, -4, 4)
F = LocalFunction.from_entries(STATES, (0, 1), {(1, 1): 1, (1, 0): 2})
XI = ConservedQuantity(states=STATES, values=(0, 1), base_index=0)
SITE_FUNCTIONS = {0: LocalFunction.from_entries(STATES, (0,), {(1,): 1})}
ETA = configuration(PATH3, STATES, 0, {0: 1})


def edges_through(i):
    return frozenset({((0, i), (i, 0)), ((i, 0), (0, i))})


# entry point: (call with the value, a value it accepts, out-of-range ints)
INDEX = (1, [-1, 2])
ENTRIES = {
    "StateSpace.base_index": (lambda v: StateSpace(labels=("0", "1"), base_index=v), *INDEX),
    "Interaction.edges": (lambda v: Interaction(states=STATES, edges=edges_through(v)),
                          *INDEX),
    "ConservedQuantity.base_index": (
        lambda v: ConservedQuantity(states=STATES, values=(1, 0), base_index=v), *INDEX),
    "consv_basis": (lambda v: consv_basis(EXCLUSION, v), *INDEX),
    "pair_exchange_path-first": (lambda v: pair_exchange_path(EXCLUSION, v, 0), *INDEX),
    "pair_exchange_path-second": (lambda v: pair_exchange_path(EXCLUSION, 0, v), *INDEX),
    "Configuration.base_index": (
        lambda v: Configuration(graph=PATH3, states=STATES, base_index=v, assignments=()),
        *INDEX),
    "Configuration.state": (
        lambda v: Configuration(graph=PATH3, states=STATES, base_index=0,
                                assignments=((0, v),)), *INDEX),
    "configuration-base": (lambda v: configuration(PATH3, STATES, v, {0: 0}), *INDEX),
    "UniformFunction.radius": (lambda v: explicit_uniform(STATES, PATH3, 0, v, {}), 0, [-1]),
    "UniformFunction.base_index": (lambda v: explicit_uniform(STATES, PATH3, v, 0, {}),
                                   *INDEX),
    "xi_X": (lambda v: xi_X(XI.replace(base_index=None), PATH3, v), 0, [-1, 2]),
    "rebase": (lambda v: rebase(xi_X(XI, PATH3, 0), v), *INDEX),
    "sum_of_uniformly_local-radius": (
        lambda v: sum_of_uniformly_local(SITE_FUNCTIONS, v, PATH3, 0), 1, [-1]),
    "sum_of_uniformly_local-base": (
        lambda v: sum_of_uniformly_local(SITE_FUNCTIONS, 1, PATH3, v), 0, [-1, 2]),
    "load_uniform-radius": (
        lambda v: load_uniform({"base": "0", "radius": v}, STATES, PATH3), 0, [-1]),
    "LocalFunction.from_entries": (
        lambda v: LocalFunction.from_entries(STATES, (0,), {(v,): 1}), *INDEX),
    "value_at": (lambda v: SITE_FUNCTIONS[0].value_at((v,)), *INDEX),
    "is_exact_support": (lambda v: is_exact_support(F, v), *INDEX),
    "expand": (lambda v: expand(F, v), *INDEX),
    "restrict": (lambda v: restrict(F, (0,), v), *INDEX),
    "invariance_kernel-radius": (lambda v: invariance_kernel(EXCLUSION, v, WINDOW, 0), 0,
                                 [-1]),
    "invariance_kernel-base": (lambda v: invariance_kernel(EXCLUSION, 0, WINDOW, v),
                               *INDEX),
    "path_graph": (path_graph, 1, [0, -1]),
    "cycle_graph": (cycle_graph, 3, [2]),
    "lattice_window-k": (lambda v: lattice_window(v, 0, 3), 1, [0]),
    "lattice_window-a": (lambda v: lattice_window(1, v, 3), 3, [4]),
    "lattice_window-b": (lambda v: lattice_window(1, 0, v), 0, [-1]),
    "component_bfs-max_states": (lambda v: component_bfs(EXCLUSION, ETA, v), 1, [0]),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_point_accepts_an_int_in_range(entry):
    call, good, _ = ENTRIES[entry]
    call(good)


@pytest.mark.parametrize("value", BAD_TYPES, ids=["bool", "float", "fraction"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_point_refuses_a_value_that_is_not_an_int(entry, value):
    with pytest.raises(errors.SchemaError):
        ENTRIES[entry][0](value)


@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_point_refuses_an_int_out_of_range(entry):
    call, _, out_of_range = ENTRIES[entry]
    for value in out_of_range:
        with pytest.raises(errors.SchemaError):
            call(value)


def test_a_species_count_below_one_is_a_schema_error():
    with pytest.raises(errors.SchemaError, match="^bad species count in 'multispecies:0'$"):
        builtin_interaction("multispecies:0")


def test_restrict_at_a_negative_base_is_refused_not_read_from_the_table_end():
    with pytest.raises(errors.SchemaError, match="^base index -1 out of range$"):
        restrict(F, (0,), -1)


def test_a_float_base_does_not_drop_an_assignment():
    with pytest.raises(errors.SchemaError, match="^base index 1.0 out of range$"):
        configuration(PATH3, STATES, 1.0, {0: 1})


def test_an_index_out_of_range_is_a_schema_error_with_its_message():
    with pytest.raises(errors.SchemaError, match="^state index 5 out of range$"):
        consv_basis(EXCLUSION, 5)
    with pytest.raises(errors.SchemaError, match="^state index 2 out of range$"):
        Interaction(states=STATES, edges=edges_through(2))
    with pytest.raises(errors.SchemaError, match="^'radius' must be a nonnegative integer$"):
        load_uniform({"base": "0", "radius": "1"}, STATES, PATH3)
    with pytest.raises(errors.SchemaError,
                       match=r"^window \[3, 0\] is not a nonempty integer range$"):
        lattice_window(1, 3, 0)
    with pytest.raises(errors.SchemaError,
                       match=r"^\(True,\) is not an assignment of 1 sites$"):
        LocalFunction.from_entries(STATES, (0,), {(True,): 1})


def test_require_int_formats_its_message_only_on_failure():
    assert require_int(3, "{", 0, 4) == 3  # a malformed template is never formatted
    assert require_int(-7, "unused", None) == -7
    with pytest.raises(errors.SchemaError, match="^n=0 below 1$"):
        require_int(0, "n={} below {}", 1, fields=(0, 1))
    with pytest.raises(errors.SchemaError, match="^got 'x'$"):
        require_int("x", "got {!r}")


# ---------------------------------------------------------------------------
# the checks the rule replaced stay gone

SOURCES = sorted(Path(latticecalc.__file__).parent.glob("*.py"))


def ad_hoc_checks(tree: ast.AST) -> list[tuple[int, str]]:
    """Integer checks of ``tree`` outside the body of a ``require_int``: a
    type test against ``int`` (``type(x) is int``, ``x.__class__ is not
    int``) and a chained range check from a constant (``0 <= x < n``)."""
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "require_int"
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt or not isinstance(node, ast.Compare):
            continue
        left = node.left
        is_type_of = (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
                      and left.func.id == "type") or (
            isinstance(left, ast.Attribute) and left.attr == "__class__")
        if is_type_of and any(
                isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                and isinstance(right, ast.Name) and right.id == "int"
                for op, right in zip(node.ops, node.comparators)):
            found.append((node.lineno, "type test against int"))
        if len(node.ops) > 1 and isinstance(left, ast.Constant) and all(
                isinstance(op, (ast.Lt, ast.LtE)) for op in node.ops):
            found.append((node.lineno, "chained range check"))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_ad_hoc_integer_check_outside_require_int(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert ad_hoc_checks(tree) == []


def test_require_int_is_defined_once_in_rationals():
    defining = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "require_int"
    ]
    assert defining == ["rationals.py"]


@pytest.mark.parametrize(
    "source,what",
    [
        ("ok = type(n) is int", "type test against int"),
        ("bad = type(n) is not int or n < 1", "type test against int"),
        ("ok = n.__class__ is int", "type test against int"),
        ("ok = type(n) == int", "type test against int"),
        ("ok = 0 <= i < n", "chained range check"),
        ("bad = not 0 <= i < len(labels)", "chained range check"),
        ("ok = 1 < k <= 4", "chained range check"),
    ],
)
def test_the_scan_sees_each_kind_of_check(source, what):
    assert ad_hoc_checks(ast.parse(source)) == [(1, what)]


def test_the_scan_lets_require_int_and_other_comparisons_through():
    source = (
        "def require_int(value, message, floor=0, below=None):\n"
        "    return type(value) is int and floor <= value < below\n"
        "ok = lo < column[w] < top and type(v) is list and isinstance(v, int)\n"
    )
    assert ad_hoc_checks(ast.parse(source)) == []
