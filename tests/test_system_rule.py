"""Every operand pair handed to the library passes one system rule,
``errors.require_same_system``: of ``states``, ``graph`` and ``base_index``,
each that both operands carry must be equal, or a ``MismatchError`` (code
``mismatch``) says "<operands> disagree on the <state space | graph | base
state>".

One table of entry points gets an operand over another state space: each
must refuse it, never answer for the other system.  Each also gets the same
operand over the interaction's own state space, so a refusal is the other
system's doing.  The other state space lists the same labels in the other
order, so an entry point that skipped the rule would read each label as the
other state and still return a result.  A source scan keeps the comparisons
the rule replaced from coming back.
"""

import ast
import json
from pathlib import Path

import pytest

import latticecalc
from latticecalc import errors, transitions
from latticecalc.cli import main
from latticecalc.cohomology import extract_conserved
from latticecalc.errors import require_same_system
from latticecalc.interaction import ConservedQuantity, builtin_interaction, state_space
from latticecalc.localfn import ExactSupportFunction, LocalFunction, assemble
from latticecalc.sitegraph import lattice_window, path_graph
from latticecalc.transitions import (
    Transition,
    component_bfs,
    is_invariant,
    neighbors,
    permutation_path,
    swap_path,
    transition_from_document,
)
from latticecalc.uniform import (
    configuration,
    difference,
    evaluate,
    explicit_uniform,
    families_equal,
    sum_of_uniformly_local,
    xi_X,
)

PHI = builtin_interaction("exclusion")
S = PHI.states  # labels "0", "1", base "0"
OTHER = state_space(["1", "0"])  # the same labels, read the other way round
P4 = path_graph(4)


def eta_over(states, graph=P4, base=0):
    """Site 0 holds the state that is not ``base``, every other site ``base``."""
    return configuration(graph, states, base, {0: 1 - base})


def xi_over(states):
    return ConservedQuantity(states=states, values=(0, 1), base_index=0)


def f_over(states, graph=P4, base=0):
    """The particle number on ``graph``, written at ``base``."""
    xi = ConservedQuantity(states=states, values=(-base, 1 - base), base_index=base)
    return xi_X(xi, graph, base)


def local_over(states, site=0):
    return LocalFunction.from_entries(states, (site,), {(1,): 1})


def move_over(states):
    """The document moving the particle at site 0 to site 1, in ``states``' labels."""
    one, zero = states.labels[1], states.labels[0]
    return {"edge": [0, 1], "from": [one, zero], "to": [zero, one]}


# entry point: call with the foreign operand over ``s`` against operands over S
ENTRIES = {
    "transition_from_document": lambda s: transition_from_document(
        move_over(s), PHI, eta_over(s)),
    "swap_path": lambda s: swap_path(PHI, eta_over(s), 0, 3),
    "permutation_path": lambda s: permutation_path(PHI, eta_over(s), {0: 3, 3: 0}),
    "permutation_path-identity": lambda s: permutation_path(PHI, eta_over(s), {}),
    "is_invariant-no-probe": lambda s: is_invariant(f_over(s), PHI),
    "is_invariant": lambda s: is_invariant(f_over(s), PHI, [eta_over(s)]),
    "unconserved_edge": lambda s: xi_over(s).unconserved_edge(PHI),
    "pair_sum_constant": lambda s: xi_over(s).pair_sum_constant(PHI),
    "neighbors": lambda s: neighbors(PHI, eta_over(s)),
    "component_bfs": lambda s: component_bfs(PHI, eta_over(s)),
    "extract_conserved": lambda s: extract_conserved(f_over(s), PHI),
    "evaluate": lambda s: evaluate(f_over(S), eta_over(s)),
    "difference": lambda s: difference(f_over(S), eta_over(S), eta_over(s)),
    "Transition": lambda s: Transition(PHI, eta_over(s), (0, 1), ((1, 0), (0, 1))),
    "UniformFunction": lambda s: explicit_uniform(S, P4, 0, 0, {(0,): ExactSupportFunction(
        states=s, support=(0,), table=(0, 1))}),
    "sum_of_uniformly_local": lambda s: sum_of_uniformly_local(
        {0: local_over(S), 1: local_over(s, 1)}, 1, P4, 0),
    "assemble": lambda s: assemble({(0,): local_over(s)}, (0,), S),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_point_accepts_operands_of_one_system(entry):
    ENTRIES[entry](S)


@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_point_refuses_an_operand_over_another_state_space(entry):
    with pytest.raises(errors.MismatchError, match="^[a-z ]+ disagree on the state space$"):
        ENTRIES[entry](OTHER)


def test_a_quantity_over_fewer_states_is_refused_not_an_index_error():
    ms2 = builtin_interaction("multispecies:2")
    for check in (xi_over(S).unconserved_edge, xi_over(S).pair_sum_constant):
        with pytest.raises(errors.MismatchError,
                           match="^quantity and interaction disagree on the state space$"):
            check(ms2)


@pytest.mark.parametrize(
    "eta,field",
    [
        (eta_over(S), None),
        (eta_over(OTHER), "state space"),
        (eta_over(S, lattice_window(1, 0, 3)), "graph"),
        (eta_over(S, base=1), "base state"),
    ],
    ids=["same", "states", "graph", "base"],
)
def test_the_rule_names_the_first_field_that_differs(eta, field):
    f = f_over(S)
    if field is None:
        assert evaluate(f, eta) == 1
        return
    with pytest.raises(errors.MismatchError) as caught:
        evaluate(f, eta)
    assert str(caught.value) == f"function and configuration disagree on the {field}"
    assert caught.value.code == "mismatch" and caught.value.exit_status == 2
    assert not families_equal(f, f_over(eta.states, eta.graph, eta.base_index))


def test_the_rule_skips_a_field_either_operand_lacks():
    require_same_system(PHI, eta_over(S, base=1), "x")  # an interaction carries states only
    require_same_system(xi_over(S).replace(base_index=None), f_over(S, base=1), "x")
    with pytest.raises(errors.MismatchError, match="^x disagree on the base state$"):
        require_same_system(xi_over(S), f_over(S, base=1), "x")


def test_assemble_refuses_other_states_as_a_mismatch_not_a_support_error():
    with pytest.raises(errors.MismatchError,
                       match="^components disagree on the state space$") as caught:
        assemble({(0,): local_over(S), (1,): local_over(OTHER, 1)}, (0, 1))
    assert caught.value.code == "mismatch"


def test_assemble_and_a_uniformly_local_system_sum_members_of_other_bases():
    at0 = ExactSupportFunction(states=S, support=(0,), table=(0, 1), base_index=0)
    at1 = ExactSupportFunction(states=S, support=(1,), table=(1, 0), base_index=1)
    assert assemble({(0,): at0, (1,): at1}, (0, 1)).table == (1, 0, 2, 1)
    ms2 = builtin_interaction("multispecies:2").states
    system = {0: ExactSupportFunction(states=ms2, support=(0,), table=(1, 0, 0), base_index=1),
              1: ExactSupportFunction(states=ms2, support=(1,), table=(0, 1, 0), base_index=0)}
    assert sum_of_uniformly_local(system, 1, P4, 2).base_index == 2


# ---------------------------------------------------------------------------
# failed internal cross-checks are verification failures, not bad input


def test_a_swap_schedule_that_fails_is_verification_failed(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(transitions, "pair_exchange_path", lambda phi, s, t: [])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"base": "0", "assignments": {"0": "1"}}))
    code = main(["swap-path", "--interaction", "exclusion", "--graph", "path:4",
                 "--config", str(config), "--sites", "0", "3"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    error = json.loads(captured.err)["error"]
    assert error["code"] == "verification-failed"
    assert error["message"] == "exchange schedule failed to realize the swap"


def test_a_transposition_schedule_that_fails_is_verification_failed(monkeypatch):
    monkeypatch.setattr(transitions, "swap_path", lambda phi, eta, x, y: [])
    with pytest.raises(errors.VerificationError,
                       match="^transposition schedule failed to realize sigma$"):
        permutation_path(PHI, eta_over(S), {0: 3, 3: 0})


# ---------------------------------------------------------------------------
# the comparisons the rule replaced stay gone

SOURCES = sorted(Path(latticecalc.__file__).parent.glob("*.py"))
FIELDS = {"states", "graph", "base_index"}


def _fields_named(side: ast.AST) -> bool:
    """True when ``side``, or an entry of it if it is a tuple, is a system
    field read off an operand (``x.states``) or a variable of that name."""
    parts = side.elts if isinstance(side, ast.Tuple) else [side]
    return any(isinstance(p, ast.Attribute) and p.attr in FIELDS
               or isinstance(p, ast.Name) and p.id in FIELDS for p in parts)


def system_checks(tree: ast.AST) -> list[int]:
    """Lines of ``tree`` outside ``require_same_system`` that compare a system
    field of one operand with one of another: ``a.states != b.states``,
    ``comp.states != states``, ``(a.graph, a.base_index) == (b.graph, b.base_index)``."""
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "require_same_system"
        for node in ast.walk(fn)
    }
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and id(node) not in exempt
            and sum(map(_fields_named, [node.left, *node.comparators])) >= 2]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_system_comparison_outside_the_rule(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert system_checks(tree) == []


def test_the_rule_is_defined_once_and_its_forerunner_is_gone():
    defined = [
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and node.name in ("require_same_system", "_require_context")
    ]
    assert defined == [("errors.py", "require_same_system")]


@pytest.mark.parametrize(
    "source,lines",
    [
        ("bad = eta.states != phi.states", [1]),
        ("bad = a.graph == b.graph", [1]),
        ("bad = f.base_index is not g.base_index", [1]),
        ("if comp.states != states:\n    pass\n", [1]),
        ("bad = (a.states, a.graph) != (b.states, b.graph)", [1]),
        ("bad = f.states != g.states or f.graph != g.graph", [1, 1]),
        ("x = 0\ndef other(a, b):\n    return a.base_index == b.base_index\n", [3]),
    ],
)
def test_the_scan_sees_each_kind_of_comparison(source, lines):
    assert system_checks(ast.parse(source)) == lines


def test_the_scan_lets_the_rule_and_other_comparisons_through():
    source = (
        "def require_same_system(a, b, what):\n"
        "    return a.states != b.states\n"
        "ok = state == self.base_index\n"
        "ok = self.base_index is not None\n"
        "ok = f.graph.kind != LATTICE_Z\n"
        "ok = states.labels != own.labels\n"
        "ok = new_base == f.base_index\n"
    )
    assert system_checks(ast.parse(source)) == []
