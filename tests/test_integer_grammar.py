"""Every integer read from text has one grammar, ASCII ``-?[0-9]+``.

One table of tokens outside that grammar goes to every entry point that
reads an integer: the command line must answer each with one ``schema``
error line and exit status 1, and the library with ``SchemaError``.  Each
entry point also gets a token it accepts, so a refusal is the token's doing.
"""

import json

import pytest

from latticecalc import errors
from latticecalc.cli import main
from latticecalc.interaction import builtin_interaction
from latticecalc.rationals import parse_int, parse_rational
from latticecalc.sitegraph import path_graph
from latticecalc.transitions import transition_from_document
from latticecalc.uniform import configuration

BAD_TOKENS = [" 1", "1 ", "+1", "1_0", "١", "²", ""]

KERNEL = ["kernel", "--interaction", "exclusion", "--radius"]
ON_PATH3 = ["--interaction", "exclusion", "--graph", "path:3", "--config", "one.json"]
H0 = ["h0", "--interaction", "exclusion", "--graph"]

# entry point: (argv, "{}" marking the token, and a token it accepts)
CLI_ENTRIES = {
    "radius": ([*KERNEL, "{}", "--window=-4:4"], "1"),
    "k": ([*KERNEL, "1", "--window=-4:4", "--k", "{}"], "1"),
    "max-states": (["component", *ON_PATH3, "--max-states", "{}"], "1"),
    "path": ([*H0, "path:{}"], "3"),
    "cycle": ([*H0, "cycle:{}"], "3"),
    "lattice-k": ([*H0, "lattice:{}:-1:1"], "1"),
    "lattice-a": ([*H0, "lattice:1:{}:1"], "-1"),
    "lattice-b": ([*H0, "lattice:1:-1:{}"], "1"),
    "window-a": ([*KERNEL, "1", "--window={}:4"], "-4"),
    "window-b": ([*KERNEL, "1", "--window=-4:{}"], "4"),
    "sites": (["swap-path", *ON_PATH3, "--sites", "{}", "2"], "1"),
    # the token is a site key of the configuration document token.json
    "config-key": (["neighbors", *ON_PATH3[:-1], "token.json"], "1"),
    "multispecies": (["consv", "--interaction", "multispecies:{}"], "2"),
    # the token is the value of max_table in LATTICECALC_CAPS
    "caps": ([*H0, "path:3"], "8"),
}


def run_entry(capsys, monkeypatch, tmp_path, entry, token):
    argv, _ = CLI_ENTRIES[entry]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.json").write_text(json.dumps({"base": "0", "assignments": {"0": "1"}}))
    (tmp_path / "token.json").write_text(
        json.dumps({"base": "0", "assignments": {token: "1"}}))
    if entry == "caps":
        monkeypatch.setenv("LATTICECALC_CAPS", f"max_table={token}")
    code = main([arg.replace("{}", token) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("token", BAD_TOKENS, ids=ascii)
@pytest.mark.parametrize("entry", CLI_ENTRIES)
def test_the_command_line_refuses_each_bad_integer(capsys, monkeypatch, tmp_path, entry,
                                                   token):
    code, out, err = run_entry(capsys, monkeypatch, tmp_path, entry, token)
    assert code == 1 and not out
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["code"] == "schema"


@pytest.mark.parametrize("entry", CLI_ENTRIES)
def test_each_command_line_entry_accepts_an_ascii_integer(capsys, monkeypatch, tmp_path,
                                                          entry):
    code, out, err = run_entry(capsys, monkeypatch, tmp_path, entry, CLI_ENTRIES[entry][1])
    assert code == 0 and out and not err


def test_a_superscript_species_count_is_a_schema_error_not_a_crash(capsys):
    code = main(["consv", "--interaction", "multispecies:²"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == (
        '{"error":{"code":"schema","message":"bad species count in '
        "'multispecies:\\u00b2'\"}}\n"
    )


NINES = "9" * 5000  # ASCII digits, but past the interpreter's 4,300-digit limit
PAST_THE_DIGIT_LIMIT = {
    "shorthand": ([*H0, f"path:{NINES}"], {}),
    "flag": ([*KERNEL, NINES, "--window=-4:4"], {}),
    "graph-file": ([*H0, "big.json"], {"big.json": f'{{"kind": "path", "n": {NINES}}}'}),
    "site-key": (["neighbors", *ON_PATH3[:-1], "big.json"],
                 {"big.json": f'{{"base": "0", "assignments": {{"{NINES}": "1"}}}}'}),
    "table-entry": (["expand", "--function", "big.json"],
                    {"big.json": '{"states": ["0", "1"], "base": "0", "support": [0], '
                                 f'"table": {{"1": "{NINES}"}}}}'}),
}


@pytest.mark.parametrize("entry", PAST_THE_DIGIT_LIMIT)
def test_an_integer_past_the_digit_limit_is_a_schema_error_not_a_crash(capsys, monkeypatch,
                                                                       tmp_path, entry):
    argv, files = PAST_THE_DIGIT_LIMIT[entry]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"]["code"] == "schema"


def test_the_library_refuses_integer_text_past_the_digit_limit():
    for read in (parse_int, parse_rational, lambda text: parse_rational("1/" + text)):
        with pytest.raises(errors.SchemaError):
            read(NINES)
    assert parse_rational("-" + "9" * 4000 + "/3") == -int("3" * 4000)


EXCLUSION = builtin_interaction("exclusion")
ETA = configuration(path_graph(3), EXCLUSION.states, 0, {0: 1})


def replay_edge(token):
    doc = {"edge": [token, "1"], "from": ["1", "0"], "to": ["0", "1"]}
    return transition_from_document(doc, EXCLUSION, ETA).after


LIBRARY_ENTRIES = {
    "parse_int": (parse_int, "1"),
    "rational": (parse_rational, "1"),
    "rational-denominator": (lambda token: parse_rational("1/" + token), "3"),
    "transition-edge": (replay_edge, "0"),
    "site": (path_graph(3).parse_site, "1"),
    "species-count": (lambda token: builtin_interaction("multispecies:" + token), "2"),
}


@pytest.mark.parametrize("token", BAD_TOKENS, ids=ascii)
@pytest.mark.parametrize("entry", LIBRARY_ENTRIES)
def test_the_library_refuses_each_bad_integer(entry, token):
    read, good = LIBRARY_ENTRIES[entry]
    read(good)
    with pytest.raises(errors.SchemaError):
        read(token)


def test_parse_int_reads_ascii_integers_and_names_the_bad_token():
    assert [parse_int(t) for t in ("0", "-0", "007", "-12")] == [0, 0, 7, -12]
    for bad in ("-", "--1", "1-", "1\n", "0x1", 1, None):
        with pytest.raises(errors.SchemaError, match="^invalid int value: "):
            parse_int(bad)
    with pytest.raises(errors.SchemaError, match="^bad count$"):
        parse_int("x", "bad count")

