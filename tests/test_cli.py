"""End-to-end checks of the command-line surface.

Reports must be byte-deterministic, round-trip through the library loaders,
and fail with machine-parsable one-line errors on the right exit status.
"""

import json

import pytest

from latticecalc import linalg
from latticecalc.cli import main
from latticecalc.interaction import builtin_interaction, state_space
from latticecalc.sitegraph import lattice_window, load_graph
from latticecalc.transitions import transition_from_document
from latticecalc.uniform import (
    configuration,
    families_equal,
    load_configuration,
    load_uniform,
    xi_X,
)
from latticecalc.interaction import consv_basis


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


def test_kernel_report_shape_and_basis_loads(capsys):
    code, out, _ = run(
        capsys, "kernel",
        "--interaction", "exclusion",
        "--radius", "1",
        "--window=-4:4",
    )
    assert code == 0
    outputs = last_report(out)["outputs"]
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
    states = state_space(doc["states"], doc["base"])
    graph = load_graph(doc["graph"])
    reloaded = load_uniform(doc, states, graph)
    assert reloaded.base_index == states.index("1")
    assert ["involution", "pass"] in report["verification"]


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
