"""End-to-end checks of the command-line surface.

Reports must be byte-deterministic, round-trip through the library loaders,
and fail with machine-parsable one-line errors on the right exit status.
"""

import hashlib
import itertools
import json
import time
from types import SimpleNamespace

import pytest

from latticecalc import __version__, cli, cohomology, linalg, sitegraph
from latticecalc.cli import _COMMON, COMMANDS, _dumps, main
from latticecalc.interaction import builtin_interaction, state_space
from latticecalc.sitegraph import cycle_graph, lattice_window, load_graph
from latticecalc.transitions import (
    ConfigCode,
    component_bfs,
    transition_document,
    transition_from_document,
)
from latticecalc.uniform import (
    configuration,
    families_equal,
    load_configuration,
    load_uniform,
    xi_X,
)
from latticecalc.interaction import ConservedQuantity, consv_basis

from conftest import add_pair_component_to_kernel_basis


@pytest.fixture
def workdir(tmp_path):
    files = {
        "xiX.json": {
            "states": ["0", "1"],
            "base": "0",
            "graph": {"kind": "lattice_z", "k": 1, "window": [-6, 6]},
            "kind": "translated",
            "radius": 0,
            "template": [{"support": [0], "table": {"1": "1"}}],
        },
        "etaA.json": {"base": "0", "assignments": {"0": "1", "3": "1"}},
        "etaB.json": {"base": "0", "assignments": {"1": "1", "3": "1"}},
        "one.json": {"base": "0", "assignments": {"0": "1"}},
        "local.json": {
            "states": ["0", "1", "2"],
            "base": "0",
            "support": [0, 1],
            "table": {"0,0": "1", "1,2": "3/2", "2,0": "-2"},
        },
    }
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_report(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def assert_check_failed(result, check):
    """A failed check ends the call: exit 2, no report, and one
    ``verification-failed`` line naming the check."""
    code, out, err = result
    assert (code, out) == (2, "")
    assert err == _dumps({"error": {"code": "verification-failed",
                                    "message": f"check {check} failed"}}) + "\n"


def test_consv_reports_standard_basis(capsys):
    code, out, err = run(capsys, "consv", "--interaction", "multispecies:2")
    assert code == 0 and not err
    report = last_report(out)
    assert report["command"] == "consv"
    assert report["outputs"]["dimension"] == 2
    assert report["outputs"]["basis"] == [
        {"0": "0", "1": "1", "2": "0"},
        {"0": "0", "1": "0", "2": "1"},
    ]
    assert ["pair-sum-constant", "pass"] in report["verification"]
    assert report["version"]


def test_exchangeable_answers(capsys):
    code, out, _ = run(capsys, "exchangeable", "--interaction", "quastel2")
    assert code == 0
    assert last_report(out)["outputs"]["exchangeable"] is False
    code, out, _ = run(capsys, "exchangeable", "--interaction", "two-species-ac")
    assert last_report(out)["outputs"]["exchangeable"] is True


def test_diff_vanishes_along_a_transition(capsys, workdir):
    code, out, _ = run(
        capsys, "diff",
        "--function", str(workdir / "xiX.json"),
        "--from", str(workdir / "etaA.json"),
        "--to", str(workdir / "etaB.json"),
    )
    assert code == 0
    report = last_report(out)
    assert report["outputs"]["value"] == "0"
    assert ["evaluation-consistent", "pass"] in report["verification"]
    assert set(report["inputs"]) == {"function", "from", "to"}
    assert all(v.startswith("sha256:") for v in report["inputs"].values())


def test_expand_round_trips_through_loader(capsys, workdir):
    code, out, _ = run(capsys, "expand", "--function", str(workdir / "local.json"))
    assert code == 0
    report = last_report(out)
    comps = report["outputs"]["components"]
    st3 = state_space(["0", "1", "2"], "0")
    from latticecalc.uniform import load_component_list

    parsed = load_component_list(
        [c for c in comps if c["support"]], st3, 0
    )
    assert set(parsed) == {(0,), (1,), (0, 1)}
    assert ["reassemble", "pass"] in report["verification"]


def test_component_streams_replayable_transitions(capsys, workdir):
    code, out, _ = run(
        capsys, "component",
        "--interaction", "exclusion",
        "--graph", "lattice:1:-2:2",
        "--config", str(workdir / "one.json"),
    )
    assert code == 0
    lines = out.strip().splitlines()
    report = json.loads(lines[-1])
    assert report["outputs"]["size"] == 5
    phi = builtin_interaction("exclusion")
    g = lattice_window(1, -2, 2)
    eta = load_configuration(
        json.loads((workdir / "one.json").read_text()), phi.states, g
    )
    seen = {eta}
    frontier = {eta}
    for line in lines[:-1]:
        doc = json.loads(line)
        matched = None
        for candidate in frontier | seen:
            try:
                matched = transition_from_document(doc, phi, candidate)
                break
            except Exception:
                continue
        assert matched is not None
        seen.add(matched.after)
    assert len(seen) == report["outputs"]["size"]


def test_truncated_component_streams_lines_that_replay(capsys, workdir):
    code, out, _ = run(
        capsys, "component",
        "--interaction", "exclusion",
        "--graph", "lattice:1:-6:6",
        "--config", str(workdir / "etaA.json"),
        "--max-states", "5",
    )
    assert code == 0
    *lines, report = out.strip().splitlines()
    report = json.loads(report)
    assert report["outputs"] == {"size": 5, "transitions": 4, "truncated": True}
    assert ["round-trip", "pass"] in report["verification"]
    phi, g = builtin_interaction("exclusion"), lattice_window(1, -6, 6)
    eta = load_configuration(
        json.loads((workdir / "etaA.json").read_text()), phi.states, g
    )
    result = component_bfs(phi, eta, max_states=5)
    codes = ConfigCode(phi, g)
    assert len(lines) == len(result.steps) == 4
    for line, (before, edge, phi_edge, after) in zip(lines, result.steps):
        doc = json.loads(line)
        assert doc == transition_document(edge, phi_edge, phi.states.labels)
        assert codes.apply(codes.read(doc), before) == after


def test_component_round_trip_fails_when_a_replay_disagrees(capsys, workdir, monkeypatch):
    monkeypatch.setattr(ConfigCode, "apply", lambda self, move, code: -1)
    result = run(
        capsys, "component",
        "--interaction", "exclusion",
        "--graph", "lattice:1:-2:2",
        "--config", str(workdir / "one.json"),
    )
    assert_check_failed(result, "round-trip")


def corrupt_step(result, which, how):
    """The exclusion component ``result`` with one field of one step replaced:
    of its last step, or of the first step whose move a later step fires again."""
    moves = [(edge, phi_edge) for _, edge, phi_edge, _ in result.steps]
    if which == "last":
        i = len(moves) - 1
    else:
        i = next(i for i, move in enumerate(moves) if move in moves[i + 1:])
    before, edge, phi_edge, after = result.steps[i]
    (x, y), (source, _), place = edge, phi_edge, result.codes.place
    if how == "before-source":  # the states at the edge are not the source
        before = next(
            c for c in result.visited
            if (c // place[x] % 2, c // place[y] % 2) != source
        )
    elif how == "before-elsewhere":  # the same source, an empty site filled
        away = next(v for v in place if v not in edge and before // place[v] % 2 == 0)
        before += place[away]
    else:
        after = next(c for c in result.visited if c != after)
    steps = list(result.steps)
    steps[i] = (before, edge, phi_edge, after)
    return result.replace(steps=tuple(steps))


@pytest.mark.parametrize("how", ["before-source", "before-elsewhere", "after"])
@pytest.mark.parametrize("which", ["last", "repeated"])
def test_component_round_trip_fails_on_one_bad_step(
    capsys, workdir, monkeypatch, which, how
):
    monkeypatch.setattr(
        "latticecalc.cli.component_bfs",
        lambda *a, **kw: corrupt_step(component_bfs(*a, **kw), which, how),
    )
    result = run(
        capsys, "component",
        "--interaction", "exclusion",
        "--graph", "lattice:1:-2:4",
        "--config", str(workdir / "etaA.json"),
    )
    assert_check_failed(result, "round-trip")


# stdout digests recorded before the search kept its results as codes
COMPONENT_SHA256 = {
    "json": "247b8c33434faa87b6810456a54345999901a6181383244fca7d1007e1d87a21",
    "table": "52e8c18c7c343a6f0a388d084efcd2a810bbb3049f1c321cd8fbc3b15b7c88c4",
}


@pytest.mark.parametrize("fmt", COMPONENT_SHA256)
def test_component_stdout_is_pinned(capsys, tmp_path, monkeypatch, fmt):
    (tmp_path / "ms2.json").write_text(
        '{"base": "0", "assignments": {"-2": "1", "0": "2", "1": "1", "3": "2"}}\n'
    )
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, "component",
        "--interaction", "multispecies:2",
        "--graph", "lattice:1:-3:4",
        "--config", "ms2.json",
        "--format", fmt,
    )
    assert code == 0 and len(out.splitlines()) in (420, 423)
    assert hashlib.sha256(out.encode()).hexdigest() == COMPONENT_SHA256[fmt]


def reference_component_stdout(name, graph, config, inputs, params, fmt, max_states):
    """``component``'s stdout written step by step: one ``transition_document``,
    one ``_dumps``, one ``ConfigCode.read`` and one ``apply`` for every step."""
    phi = builtin_interaction(name)
    eta = load_configuration(json.loads(config.read_text()), phi.states, graph)
    result = component_bfs(phi, eta, max_states=max_states)
    docs, ok = [], True
    for before, edge, phi_edge, after in result.steps:
        docs.append(transition_document(edge, phi_edge, phi.states.labels))
        ok = ok and result.codes.apply(result.codes.read(docs[-1]), before) == after
    outputs = {
        "size": len(result.visited),
        "transitions": len(docs),
        "truncated": result.truncated,
    }
    verification = [["round-trip", "pass" if ok else "fail"]]
    if fmt == "table":
        rows = [
            f"{d['edge'][0]}~{d['edge'][1]}: {','.join(d['from'])} -> {','.join(d['to'])}"
            for d in docs
        ]
        rows += [f"{key}: {outputs[key]}" for key in sorted(outputs)]
        rows += [f"check {check}: {status}" for check, status in verification]
        return "\n".join(rows) + "\n"
    report = {
        "command": "component",
        "inputs": inputs,
        "outputs": outputs,
        "params": params,
        "tool": "latticecalc",
        "verification": verification,
        "version": __version__,
    }
    return "".join(_dumps(doc) + "\n" for doc in docs) + _dumps(report) + "\n"


STRING_GRAPH_DOC = {
    "kind": "explicit",
    "vertices": ["d", "b", "a", "c", "e"],
    "edges": [["a", "b"], ["b", "c"], ["c", "a"], ["c", "d"], ["d", "e"]],
}
PLACED = {
    "exclusion": ["1", "1"],
    "multispecies:2": ["1", "2", "1"],
    "multispecies:3": ["1", "3", "2"],
    "two-species-ac": ["-1", "1"],
    "quastel2": ["1", "2"],
}


COMPONENT_GRAPHS = {  # --graph argument, the graph, --max-states
    "lattice": ("lattice:1:-3:2", lattice_window(1, -3, 2), None),
    "cycle": ("cycle:6", cycle_graph(6), None),
    "strings": ("strings.json", load_graph(STRING_GRAPH_DOC), None),
    "truncated": ("lattice:1:-4:4", lattice_window(1, -4, 4), 7),
}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("where", COMPONENT_GRAPHS)
@pytest.mark.parametrize("name", PLACED)
def test_component_stdout_matches_the_per_step_reference(
    capsys, tmp_path, monkeypatch, name, where, fmt
):
    monkeypatch.chdir(tmp_path)
    graph_arg, graph, max_states = COMPONENT_GRAPHS[where]
    (tmp_path / "strings.json").write_text(json.dumps(STRING_GRAPH_DOC))
    states = builtin_interaction(name).states
    sites = ["a", "c", "e"] if where == "strings" else ["0", "1", "2"]
    config = tmp_path / "start.json"
    config.write_text(json.dumps({
        "base": states.labels[states.base_index],
        "assignments": dict(zip(sites, PLACED[name])),
    }))
    argv = ["component", "--interaction", name, "--graph", graph_arg, "--config", "start.json"]
    params = {"interaction": name, "graph": graph_arg, "config": "start.json"}
    if max_states is not None:
        params["max_states"] = max_states
        argv += ["--max-states", str(max_states)]

    def digest(path):
        return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()

    inputs = {
        "interaction": "builtin:" + name,
        "graph": digest(tmp_path / graph_arg) if where == "strings" else "shorthand:" + graph_arg,
        "config": digest(config),
    }
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == reference_component_stdout(
        name, graph, config, inputs, params, fmt, max_states
    )
    *lines, report = out.splitlines()
    assert len(lines) > 4 and "pass" in report


def test_swap_path_endpoint(capsys, workdir):
    code, out, _ = run(
        capsys, "swap-path",
        "--interaction", "exclusion",
        "--graph", "lattice:1:-6:6",
        "--config", str(workdir / "one.json"),
        "--sites", "0", "3",
    )
    assert code == 0
    report = last_report(out)
    assert report["outputs"]["endpoint"]["assignments"] == {"3": "1"}
    assert ["endpoint-swap", "pass"] in report["verification"]


def test_invariant_probes(capsys, workdir):
    code, out, _ = run(
        capsys, "invariant",
        "--function", str(workdir / "xiX.json"),
        "--interaction", "exclusion",
        "--probe", str(workdir / "etaA.json"),
    )
    assert code == 0
    report = last_report(out)
    assert report["outputs"]["invariant"] is True
    assert report["outputs"]["coverage"] == "probe-set-only"


def test_h0_reports_exact_dimensions(capsys):
    code, out, _ = run(
        capsys, "h0", "--interaction", "two-species-ac", "--graph", "path:2"
    )
    assert code == 0
    outputs = last_report(out)["outputs"]
    assert outputs == {"dim_c0": 9, "dim_c1": 5, "rank": 4, "h0": 5, "h1": 1}


def test_extract_conserved_roundtrip(capsys, workdir):
    code, out, _ = run(
        capsys, "extract",
        "--function", str(workdir / "xiX.json"),
        "--interaction", "exclusion",
    )
    assert code == 0
    report = last_report(out)
    assert report["outputs"]["outcome"] == "conserved"
    assert report["outputs"]["xi"] == {"0": "0", "1": "1"}
    assert ["sitewise-sum-matches", "pass"] in report["verification"]


def test_extract_fails_loudly_when_its_cross_check_fails(capsys, tmp_path, monkeypatch):
    """A conserved outcome whose quantity does not rebuild the function is a
    failed internal check (exit 2), not an answer."""
    charge = {
        "states": ["-1", "0", "1"],
        "base": "0",
        "graph": {"kind": "lattice_z", "k": 1, "window": [-4, 4]},
        "kind": "translated",
        "radius": 0,
        "template": [{"support": [0], "table": {"-1": "-1", "1": "1"}}],
    }
    (tmp_path / "charge.json").write_text(json.dumps(charge))
    argv = ("extract", "--function", str(tmp_path / "charge.json"),
            "--interaction", "two-species-ac")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and last_report(out)["outputs"]["outcome"] == "conserved"
    monkeypatch.setattr(cohomology, "families_equal", lambda f, g: False)
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert json.loads(err)["error"] == {
        "code": "verification-failed",
        "message": "conserved quantity does not rebuild the function",
    }


HOLES = {"base": "1", "template": [{"support": [0], "table": {"0": "1"}}]}
NO_BASE_EXCLUSION = {"states": ["0", "1"], "edges": [[["0", "1"], ["1", "0"]]]}


@pytest.mark.parametrize("function,interaction,probe,xi", [
    (HOLES, "exclusion", {"base": "1", "assignments": {"0": "0", "3": "0"}},
     {"0": "1", "1": "0"}),
    ({}, NO_BASE_EXCLUSION, {"base": "0", "assignments": {"0": "1", "3": "1"}},
     {"0": "0", "1": "1"}),
], ids=["function-base-1", "interaction-without-base"])
def test_invariant_and_extract_take_a_function_at_any_base(
    capsys, workdir, function, interaction, probe, xi
):
    """Only the state labels must agree: a function at base "1" against the
    builtin at base "0", or one at base "0" against an interaction with no
    declared base.  A probe is normalised at the function's base."""
    path = workdir / "function.json"
    path.write_text(json.dumps({**json.loads((workdir / "xiX.json").read_text()), **function}))
    (workdir / "probe.json").write_text(json.dumps(probe))
    if isinstance(interaction, dict):
        (workdir / "phi.json").write_text(json.dumps(interaction))
        interaction = str(workdir / "phi.json")
    code, out, _ = run(capsys, "invariant", "--function", str(path), "--interaction",
                       interaction, "--probe", str(workdir / "probe.json"))
    assert code == 0
    outputs = last_report(out)["outputs"]
    assert outputs["invariant"] is True and outputs["transitions"] > 0
    code, out, _ = run(capsys, "extract", "--function", str(path), "--interaction", interaction)
    assert code == 0
    assert last_report(out)["outputs"]["xi"] == xi


def spelled_at_base_1(doc):
    """The same exclusion configuration on the window [-6, 6], written at
    base "1": every site the base-"0" document leaves out is a hole."""
    listed = doc["assignments"]
    return {"base": "1",
            "assignments": {str(x): "0" for x in range(-6, 7) if str(x) not in listed}}


def test_invariant_and_diff_read_configurations_at_the_functions_base(capsys, workdir):
    """A configuration is the same state assignment whichever base its
    document declares, so both spellings give the same outputs."""
    path = workdir / "holes.json"
    path.write_text(json.dumps({**json.loads((workdir / "xiX.json").read_text()), **HOLES}))
    for name in ("etaA", "etaB"):
        doc = json.loads((workdir / f"{name}.json").read_text())
        (workdir / f"{name}1.json").write_text(json.dumps(spelled_at_base_1(doc)))
    commands = {
        "invariant": lambda a, b: ("--interaction", "exclusion", "--probe", a),
        "diff": lambda a, b: ("--from", a, "--to", b),
    }
    for command, flags in commands.items():
        results = []
        for a, b in [("etaA", "etaB"), ("etaA1", "etaB1"), ("etaA", "etaB1")]:
            code, out, err = run(capsys, command, "--function", str(path),
                                 *flags(str(workdir / f"{a}.json"), str(workdir / f"{b}.json")))
            assert (code, err) == (0, "")
            results.append(last_report(out)["outputs"])
        assert results[0] == results[1] == results[2]
    assert results[0]["value"] == "0"


@pytest.mark.parametrize("state", ["0", "1"])
def test_a_configuration_naming_a_non_vertex_is_unknown_vertex(capsys, workdir, state):
    config = workdir / "config.json"
    config.write_text(json.dumps({"base": "0", "assignments": {"999": state, "1": "1"}}))
    code, out, err = run(capsys, "neighbors", "--interaction", "exclusion",
                         "--graph", "path:4", "--config", str(config))
    assert code == 2 and not out
    assert json.loads(err)["error"]["code"] == "unknown-vertex"


@pytest.mark.parametrize("command", ["invariant", "extract"])
def test_invariant_and_extract_refuse_other_labels(capsys, workdir, command):
    code, out, err = run(capsys, command, "--function", str(workdir / "xiX.json"),
                         "--interaction", "multispecies:2")
    assert code == 2 and not out
    assert json.loads(err)["error"]["code"] == "mismatch"


def test_kernel_report_shape_and_basis_loads(capsys):
    code, out, _ = run(
        capsys, "kernel",
        "--interaction", "exclusion",
        "--radius", "1",
        "--window=-4:4",
    )
    assert code == 0
    report = last_report(out)
    assert report["verification"] == [["basis-annihilates-all-rows", "pass"]]
    outputs = report["outputs"]
    assert set(outputs) == {
        "window", "k", "R", "inner_window", "unknowns", "rank", "dimension", "basis"
    }
    assert outputs["window"] == [-4, 4]
    assert outputs["R"] == 1
    assert outputs["dimension"] == 1
    g = lattice_window(1, -4, 4)
    phi = builtin_interaction("exclusion")
    basis0 = load_uniform(outputs["basis"][0], phi.states, g)
    (xi,) = consv_basis(phi, 0)
    inner = xi_X(xi, lattice_window(1, -3, 3), 0)
    mine = {k: c.table for k, c in basis0.component_map().items()}
    want = {
        (x,): tuple(xi.values[s] for s in range(2)) for x in range(-3, 4)
    }
    assert set(mine) == set(want)


def test_rebase_output_reloads(capsys, workdir):
    code, out, _ = run(
        capsys, "rebase",
        "--function", str(workdir / "xiX.json"),
        "--base", "1",
    )
    assert code == 0
    report = last_report(out)
    doc = report["outputs"]["function"]
    states = state_space(doc.pop("states"), doc["base"])
    graph = load_graph(doc.pop("graph"))  # the envelope a function file adds
    reloaded = load_uniform(doc, states, graph)
    assert reloaded.base_index == states.index("1")
    assert ["involution", "pass"] in report["verification"]


@pytest.mark.parametrize("bad", ["0", "-5"])
def test_component_rejects_max_states_below_one(capsys, workdir, bad):
    code, out, err = run(
        capsys, "component",
        "--interaction", "exclusion",
        "--graph", "lattice:1:-2:2",
        "--config", str(workdir / "one.json"),
        "--max-states", bad,
    )
    assert code == 1 and not out
    assert json.loads(err)["error"]["code"] == "schema"


def test_reports_are_byte_deterministic(capsys, workdir, tmp_path):
    commands = [
        ("consv", "--interaction", "two-species-ac"),
        ("exchangeable", "--interaction", "exclusion"),
        ("expand", "--function", str(workdir / "local.json")),
        ("rebase", "--function", str(workdir / "xiX.json"), "--base", "1"),
        ("diff", "--function", str(workdir / "xiX.json"),
         "--from", str(workdir / "etaA.json"), "--to", str(workdir / "etaB.json")),
        ("neighbors", "--interaction", "exclusion", "--graph", "lattice:1:-6:6",
         "--config", str(workdir / "one.json")),
        ("component", "--interaction", "exclusion", "--graph", "lattice:1:-2:2",
         "--config", str(workdir / "one.json")),
        ("swap-path", "--interaction", "exclusion", "--graph", "lattice:1:-6:6",
         "--config", str(workdir / "one.json"), "--sites", "0", "2"),
        ("invariant", "--function", str(workdir / "xiX.json"),
         "--interaction", "exclusion"),
        ("h0", "--interaction", "exclusion", "--graph", "path:3"),
        ("extract", "--function", str(workdir / "xiX.json"),
         "--interaction", "exclusion"),
        ("kernel", "--interaction", "exclusion", "--radius", "1", "--window=-4:4"),
    ]
    for argv in commands:
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main([*argv, "--out", str(first)]) == 0
        assert main([*argv, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv[0]


def test_builtin_id_wins_over_a_file_of_that_name(capsys, tmp_path, monkeypatch):
    three_states = {"states": ["0", "1", "2"], "base": "0",
                    "edges": [[["1", "0"], ["0", "1"]]]}
    for name in ("exclusion", "mine"):
        (tmp_path / name).write_text(json.dumps(three_states))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "consv", "--interaction", "exclusion")
    assert code == 0
    report = last_report(out)
    assert report["inputs"] == {"interaction": "builtin:exclusion"}
    assert report["outputs"]["basis"] == [{"0": "0", "1": "1"}]
    code, out, _ = run(capsys, "consv", "--interaction", "mine")
    assert code == 0
    report = last_report(out)
    assert report["inputs"]["interaction"].startswith("sha256:")
    assert report["outputs"]["dimension"] == 2


def test_read_errors_name_the_path_as_given(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "expand", "--function", "./nope.json")
    assert code == 1 and not out
    assert json.loads(err)["error"] == {
        "code": "schema",
        "message": "cannot read ./nope.json: [Errno 2] No such file or directory: './nope.json'"}
    code, out, err = run(capsys, "consv", "--interaction", "")
    assert code == 1 and not out
    assert json.loads(err)["error"] == {"code": "schema",
                                        "message": "unknown built-in interaction ''"}


def test_error_lines_and_exit_codes(capsys, workdir, tmp_path):
    code, out, err = run(capsys, "consv", "--interaction", "nosuchthing")
    assert code == 1 and not out
    assert json.loads(err)["error"]["code"] == "schema"

    code, _, err = run(
        capsys, "diff",
        "--function", str(tmp_path / "missing.json"),
        "--from", str(workdir / "etaA.json"),
        "--to", str(workdir / "etaB.json"),
    )
    assert code == 1
    assert json.loads(err)["error"]["code"] == "schema"

    blocked = {"base": "0", "assignments": {"0": "1", "1": "2"}}
    path = tmp_path / "blocked.json"
    path.write_text(json.dumps(blocked))
    code, _, err = run(
        capsys, "swap-path",
        "--interaction", "quastel2",
        "--graph", "lattice:1:-2:2",
        "--config", str(path),
        "--sites", "0", "1",
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "not-exchangeable"

    code, _, err = run(
        capsys, "kernel", "--interaction", "exclusion", "--radius", "1",
        "--window=-2:2",
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "window-too-small"


@pytest.mark.parametrize("argv,named", [
    (("kernel", "--interaction", "exclusion", "--radius", "abc", "--window=-8:8"), "--radius"),
    (("component", "--interaction", "exclusion", "--graph", "lattice:1:-2:2",
      "--config", "one.json", "--max-states", "x"), "--max-states"),
    (("consv",), "--interaction"),
    (("no-such-command",), "no-such-command"),
    (("h0", "--interaction", "exclusion", "--graph", "path:3:9"), "path:3:9"),
    (("h0", "--interaction", "exclusion", "--graph", "cycle:4:x"), "cycle:4:x"),
    (("h0", "--interaction", "exclusion", "--graph", "lattice:1:-2:2:7"), "lattice:1:-2:2:7"),
    (("h0", "--interaction", "exclusion", "--graph", "path: 3"), "path: 3"),
    (("h0", "--interaction", "exclusion", "--graph", "path:+3"), "path:+3"),
    (("h0", "--interaction", "exclusion", "--graph", "path:\u0663"), "path:\u0663"),
    (("kernel", "--interaction", "exclusion", "--radius", "1", "--window=-4:4",
      "--graph", "path:3"), "--graph"),
    (("kernel", "--interaction", "exclusion", "--radius", "1",
      "--graph", "lattice:1:-4:4", "--k", "2"), "--k"),
], ids=["bad-int", "bad-max-states", "missing-flag", "unknown-command",
        "path-extra-field", "cycle-not-int", "lattice-extra-field", "path-space",
        "path-plus-sign", "path-non-ascii-digit", "window-and-graph", "k-without-window"])
def test_bad_or_missing_flags_are_schema_errors(capsys, workdir, monkeypatch, argv, named):
    monkeypatch.chdir(workdir)
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["code"] == "schema" and named in error["message"]


# a value for each required flag, so a call fails only at the flag under test
REQUIRED_VALUES = {"--interaction": ["exclusion"], "--graph": ["path:3"],
                   "--config": ["one.json"], "--function": ["f.json"], "--from": ["a.json"],
                   "--to": ["b.json"], "--base": ["0"], "--radius": ["1"],
                   "--sites": ["0", "1"]}
EMPTY_VALUE_CALLS = [
    (command, flag)
    for command, (_, _, own) in COMMANDS.items()
    for flag, keywords in {**_COMMON, **own}.items()
    if keywords.get("nargs", 1) == 1
]


@pytest.mark.parametrize("command,flag", EMPTY_VALUE_CALLS,
                         ids=[f"{c}{f}" for c, f in EMPTY_VALUE_CALLS])
def test_a_flag_given_as_double_dash_is_a_schema_error(capsys, tmp_path, monkeypatch,
                                                       command, flag):
    """argparse drops the "--" of "--flag=--" and would store an empty list."""
    monkeypatch.chdir(tmp_path)
    own = COMMANDS[command][2]
    argv = [command]
    for other, keywords in own.items():
        if keywords.get("required") and other != flag:
            argv += [other, *REQUIRED_VALUES[other]]
    code, out, err = run(capsys, *argv, f"{flag}=--")
    assert code == 1 and not out
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["code"] == "schema"
    assert error["message"] == f"latticecalc {command}: argument {flag}: expected one argument"


@pytest.mark.parametrize("radius,count", [(10, 114687), (12, 450559), (14, 1769471),
                                          (16, 6946815), (18, 27262975)])
def test_kernel_refuses_too_many_unknowns_before_listing_them(capsys, monkeypatch, radius,
                                                              count):
    monkeypatch.delenv("LATTICECALC_CAPS", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "kernel", "--interaction", "exclusion",
                         "--radius", str(radius), "--window=-60:60")
    assert time.perf_counter() - start < 2
    assert code == 2 and not out
    assert err == _dumps({"error": {"code": "cap-exceeded",
                                    "message": f"{count} unknowns exceed cap 20000"}}) + "\n"


@pytest.mark.parametrize("argv,message", [
    (["h0", "--interaction", "exclusion", "--graph", "path:15000"],
     "2^15000+ configurations exceed cap 1048576"),
    (["kernel", "--interaction", "exclusion", "--radius", "15000", "--window=-30002:30002"],
     "2^15015+ unknowns exceed cap 20000"),
    (["component", "--interaction", "exclusion", "--graph", "lattice:1:-2:2",
      "--config", "one.json", "--max-states", "1000001"],
     "a search of 1000001 states exceeds cap 1000000"),
    (["h0", "--interaction", "exclusion", "--graph", "path:1000000000000"],
     "a graph of 1000000000000 sites exceeds cap 1000000"),
    (["neighbors", "--interaction", "exclusion", "--graph", "lattice:1:0:99999999",
      "--config", "one.json"], "a graph of 100000000 sites exceeds cap 1000000"),
    (["kernel", "--interaction", "exclusion", "--radius", "1", "--window=0:99999999"],
     "a graph of 100000000 sites exceeds cap 1000000"),
], ids=["h0", "kernel", "component", "h0-sites", "neighbors-sites", "kernel-sites"])
def test_an_over_cap_call_ends_in_one_cap_exceeded_line(capsys, monkeypatch, workdir, argv,
                                                        message):
    """A count past the interpreter's digit limit is named by its size."""
    monkeypatch.delenv("LATTICECALC_CAPS", raising=False)
    monkeypatch.chdir(workdir)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 2 and not out
    assert err == _dumps({"error": {"code": "cap-exceeded", "message": message}}) + "\n"


@pytest.mark.parametrize("token,message", [
    ("path:300000", "2^300000+ configurations exceed cap 1048576"),
    ("path:1000000000000", "a graph of 1000000000000 sites exceeds cap 1000000"),
    ("path:30", "1073741824 configurations exceed cap 1048576"),
    ("cycle:21", "2097152 configurations exceed cap 1048576"),
    ("lattice:99999999999:-10:10", "2097152 configurations exceed cap 1048576"),
])
def test_h0_refuses_an_over_cap_shorthand_before_it_builds_the_graph(capsys, monkeypatch,
                                                                     token, message):
    """The site cap first, so n is raised only to a bounded power; then the
    n^|V| configurations, before any site is listed."""
    monkeypatch.delenv("LATTICECALC_CAPS", raising=False)

    def no_graph(**fields):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(sitegraph, "SiteGraph", no_graph)
    start = time.perf_counter()
    code, out, err = run(capsys, "h0", "--interaction", "exclusion", "--graph", token)
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert err == _dumps({"error": {"code": "cap-exceeded", "message": message}}) + "\n"


def test_h0_answers_a_range_past_its_window_at_once(capsys, tmp_path):
    """k = 99999999999 on four sites has the edges of k = 3, as a shorthand
    and as a document."""
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps({"kind": "lattice_z", "k": 99999999999, "window": [0, 3]}))
    start = time.perf_counter()
    answers = [run(capsys, "h0", "--interaction", "exclusion", "--graph", graph)
               for graph in ("lattice:99999999999:0:3", str(doc), "lattice:3:0:3")]
    assert time.perf_counter() - start < 2
    assert [code for code, _, _ in answers] == [0, 0, 0]
    outputs = [json.loads(out)["outputs"] for _, out, _ in answers]
    assert outputs[0] == outputs[1] == outputs[2] == {
        "dim_c0": 16, "dim_c1": 24, "h0": 5, "h1": 13, "rank": 11}


def test_kernel_at_a_range_past_its_window_answers_at_once(capsys):
    """Templates are built for the window's offsets only, not for every j <= k."""
    start = time.perf_counter()
    wide = run(capsys, "kernel", "--interaction", "exclusion", "--radius", "0",
               "--k", "99999999999", "--window=-6:6")
    assert time.perf_counter() - start < 2
    code, out, _ = wide
    assert code == 0
    _, twelve, _ = run(capsys, "kernel", "--interaction", "exclusion", "--radius", "0",
                       "--k", "12", "--window=-6:6")
    assert json.loads(out)["outputs"]["basis"] == json.loads(twelve)["outputs"]["basis"]
    assert json.loads(out)["outputs"]["dimension"] == 1
    start = time.perf_counter()
    code, out, err = run(capsys, "kernel", "--interaction", "exclusion", "--radius", "1",
                         "--k", "99999999999", "--window=-6:6")
    assert time.perf_counter() - start < 2
    assert code == 2 and not out
    assert err == _dumps({"error": {"code": "window-too-small", "message":
                                    "inner window [99999999993, -99999999993] holds no edge"}}
                         ) + "\n"


def test_expand_refuses_a_support_over_the_cap_before_building_its_table(capsys, tmp_path,
                                                                         monkeypatch):
    monkeypatch.delenv("LATTICECALC_CAPS", raising=False)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"states": ["0", "1"], "base": "0",
                                "support": list(range(40)), "table": {}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", "--function", str(path))
    assert time.perf_counter() - start < 2
    assert code == 2 and not out
    assert json.loads(err)["error"] == {"code": "cap-exceeded",
                                        "message": "support of 40 sites exceeds cap 12"}


@pytest.mark.parametrize("command,doc", [
    ("expand", {"states": ["0", "1"], "base": "0", "support": [0], "table": ["1"]}),
    ("expand", {"states": 5, "base": "0", "support": [0], "table": {"1": "1"}}),
    ("expand", {"states": "01", "base": "0", "support": [0], "table": {"1": "1"}}),
    ("extract", {"states": ["0", "1"], "base": "0",
                 "graph": {"kind": "lattice_z", "k": 1, "window": [-6, 6]},
                 "kind": "explicit", "radius": 0,
                 "components": [{"support": [0], "table": ["1"]}]}),
    ("extract", {"states": 5, "base": "0",
                 "graph": {"kind": "lattice_z", "k": 1, "window": [-6, 6]},
                 "kind": "explicit", "radius": 0, "components": []}),
], ids=["expand-table-list", "expand-states-int", "expand-states-str",
        "extract-table-list", "extract-states-int"])
def test_malformed_function_documents_are_schema_errors(capsys, tmp_path, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--function", str(path)]
    if command == "extract":
        argv += ["--interaction", "exclusion"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["code"] == "schema"


TOP_HELP = """\
usage: latticecalc [-h] [--version]
                   {consv,exchangeable,expand,rebase,diff,neighbors,component,swap-path,invariant,h0,extract,kernel}
                   ...

Exact calculators for interacting-particle conservation laws.

positional arguments:
  {consv,exchangeable,expand,rebase,diff,neighbors,component,swap-path,invariant,h0,extract,kernel}
    consv               basis of conserved quantities
    exchangeable        decide exchangeability
    expand              exact-support components of a local function
    rebase              rewrite a uniform function over a new base state
    diff                difference of a uniform function along two
                        configurations
    neighbors           single transitions out of a configuration
    component           breadth-first reachable component
    swap-path           transition sequence exchanging two sites
    invariant           probe a uniform function for invariance
    h0                  exact cochain dimensions of a finite system
    extract             decide if a uniform function is a conserved sum
    kernel              invariance kernel over a lattice window

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""

KERNEL_HELP = """\
usage: latticecalc kernel [-h] [--format {json,table}] [--out OUT]
                          --interaction INTERACTION --radius RADIUS
                          [--window WINDOW] [--k K] [--graph GRAPH]
                          [--base BASE]

options:
  -h, --help            show this help message and exit
  --format {json,table}
  --out OUT             write the report to this file instead of stdout
  --interaction INTERACTION
  --radius RADIUS
  --window WINDOW       a:b window bounds (use --window=-6:6 form)
  --k K                 interaction range for --window
  --graph GRAPH
  --base BASE
"""


@pytest.mark.parametrize("argv,text", [
    (("--help",), TOP_HELP),
    (("kernel", "--help"), KERNEL_HELP),
    (("--version",), "latticecalc 0.1.0\n"),
], ids=["help", "kernel-help", "version"])
def test_help_and_version_exit_zero_with_their_text(capsys, monkeypatch, argv, text):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    assert stop.value.code == 0
    assert capsys.readouterr() == (text, "")


def test_h0_routes_that_disagree_fail_verification(capsys, monkeypatch):
    add = linalg.RowReducer.add
    seen = []

    def dropping_first(self, row):
        seen.append(row)
        return False if len(seen) == 1 else add(self, row)

    monkeypatch.setattr(linalg.RowReducer, "add", dropping_first)
    # exclusion on path:3 has no cycles, so every difference row adds rank
    code, out, err = run(
        capsys, "h0", "--interaction", "exclusion", "--graph", "path:3"
    )
    assert code == 2 and not out
    assert json.loads(err)["error"]["code"] == "verification-failed"


def test_kernel_basis_that_breaks_a_row_fails_verification(capsys, monkeypatch):
    add_pair_component_to_kernel_basis(monkeypatch, lattice_window(1, -5, 5), (0, 1))
    code, out, err = run(
        capsys, "kernel", "--interaction", "exclusion", "--radius", "1",
        "--window=-5:5",
    )
    assert code == 2 and not out
    assert json.loads(err)["error"]["code"] == "verification-failed"


SYSTEM = ["--interaction", "exclusion", "--graph", "lattice:1:-6:6", "--config", "one.json"]
# each check a handler computes, made to disagree by replacing its second route
FORCED_DISAGREEMENTS = {
    "consv": ((ConservedQuantity, "pair_sum_constant"), lambda self, phi: False,
              ["consv", "--interaction", "exclusion"], "pair-sum-constant"),
    # a chain from (a, b) to (b, a) whose steps are not exclusion's edges
    "exchangeable": ((cli, "pair_exchange_path"),
                     lambda phi, a, b: [((a, b), (a, a)), ((a, a), (b, a))],
                     ["exchangeable", "--interaction", "exclusion"], "pair-path-realized"),
    "expand-reassemble": ((cli, "assemble"), lambda comps, support, states: None,
                          ["expand", "--function", "local.json"], "reassemble"),
    "expand-exact-support": ((cli, "is_exact_support"), lambda comp, base: False,
                             ["expand", "--function", "local.json"], "exact-support"),
    "rebase": ((cli, "families_equal"), lambda f, g: False,
               ["rebase", "--function", "xiX.json", "--base", "1"], "involution"),
    # 0, 1, 2, ... whatever is asked: every later minus earlier value is -1
    "diff": ((cli, "evaluate"), lambda fn, eta, n=itertools.count(): next(n),
             ["diff", "--function", "xiX.json", "--from", "etaA.json", "--to", "etaB.json"],
             "evaluation-consistent"),
    "neighbors": ((cli, "transition_from_document"), lambda doc, phi, before: None,
                  ["neighbors", *SYSTEM], "round-trip"),
    "swap-path": ((cli, "transition_from_document"),
                  lambda doc, phi, before: SimpleNamespace(after=before),
                  ["swap-path", *SYSTEM, "--sites", "0", "3"], "endpoint-swap"),
    "component": ((ConfigCode, "apply"), lambda self, move, code: -1,
                  ["component", *SYSTEM], "round-trip"),
}


@pytest.mark.parametrize("case", FORCED_DISAGREEMENTS)
def test_a_check_that_disagrees_ends_the_call_before_any_output(capsys, workdir, monkeypatch,
                                                                case):
    (owner, name), replacement, argv, check = FORCED_DISAGREEMENTS[case]
    monkeypatch.chdir(workdir)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and [check, "pass"] in last_report(out)["verification"]
    monkeypatch.setattr(owner, name, replacement)
    assert_check_failed(run(capsys, *argv), check)
    target = workdir / "report.out"
    assert_check_failed(run(capsys, *argv, "--out", str(target)), check)
    assert not target.exists()


def test_explicit_graph_with_mixed_vertex_types_is_a_schema_error(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "kind": "explicit",
        "vertices": [0, "a", "b"],
        "edges": [[0, "a"], ["a", "b"], [0, "b"]],
    }))
    code, out, err = run(
        capsys, "h0", "--interaction", "exclusion", "--graph", str(path)
    )
    assert code == 1 and not out
    assert json.loads(err)["error"]["code"] == "schema"


PATH3 = {"kind": "explicit", "vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}


@pytest.mark.parametrize("argv,name,doc", [
    (["consv", "--interaction"], "i.json",
     {"states": ["0", "1"], "base": "0", "edges": [["01", "10"]]}),
    (["h0", "--interaction", "exclusion", "--graph"], "g.json",
     {**PATH3, "vertices": "abc"}),
    (["h0", "--interaction", "exclusion", "--graph"], "g.json",
     {**PATH3, "edges": ["ab", "bc"]}),
    (["expand", "--function"], "f.json",
     {"states": ["0", "1"], "base": "0", "support": "ab", "table": {"1,1": "1"}}),
    (["extract", "--interaction", "exclusion", "--function"], "f.json",
     {"states": ["0", "1"], "base": "0", "graph": PATH3, "kind": "explicit",
      "radius": 1, "components": [{"support": "ab", "table": {"1,1": "1"}}]}),
], ids=["interaction-edge", "graph-vertices", "graph-edges", "support", "component-support"])
def test_a_string_is_not_a_document_list(capsys, tmp_path, argv, name, doc):
    """Read character by character, each string here would name a list: the
    edge ((0, 1), (1, 0)), the vertices a, b, c, the edges a~b and b~c, and
    the support (a, b)."""
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and not out
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["code"] == "schema"


@pytest.mark.parametrize("n", ["abc", 4.9], ids=["str", "float"])
def test_graph_document_with_a_non_integer_size_is_a_schema_error(capsys, tmp_path, n):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "path", "n": n}))
    code, out, err = run(
        capsys, "h0", "--interaction", "exclusion", "--graph", str(path)
    )
    assert code == 1 and not out
    assert json.loads(err)["error"]["code"] == "schema"


def test_table_format_renders_text(capsys):
    code, out, _ = run(
        capsys, "h0", "--interaction", "exclusion", "--graph", "path:3",
        "--format", "table",
    )
    assert code == 0
    assert "h0: 4" in out
    assert "check rank-nullity: pass" in out


def test_out_writes_file_and_silences_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "consv", "--interaction", "exclusion", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["outputs"]["dimension"] == 1
