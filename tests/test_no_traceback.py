"""No call ends in a traceback: whatever bytes a file flag names, a call
either exits 0 with its report or exits 1 or 2 with exactly one JSON line
holding an ``error.code`` on stderr.

Each call gets valid documents for every file flag but one, which holds a
mutated valid document or raw bytes: nesting past the recursion limit, byte
``0xff``, an empty or truncated file, an integer past the digit limit."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecalc.cli import main

GRAPH = {"kind": "lattice_z", "k": 1, "window": [-3, 3]}
CONFIG = {"base": "0", "assignments": {"0": "1", "2": "1"}}
DOCUMENTS = {
    "interaction": {"states": ["0", "1"], "base": "0", "edges": [[["0", "1"], ["1", "0"]]]},
    "graph": GRAPH,
    "function": {"states": ["0", "1"], "base": "0", "graph": GRAPH, "kind": "translated",
                 "radius": 1, "template": [{"support": [0, 1], "table": {"1,1": "1"}}]},
    "local": {"states": ["0", "1", "2"], "base": "0", "support": [0, 1],
              "table": {"0,0": "1", "1,2": "3/2", "2,0": "-2"}},
    "config": CONFIG,
    "to": {"base": "0", "assignments": {"1": "1", "2": "1"}},
}
SYSTEM = {"--interaction": "interaction", "--graph": "graph", "--config": "config"}
# each command's file flags, with the document each reads, and its other flags
CALLS = {
    "consv": ({"--interaction": "interaction"}, []),
    "expand": ({"--function": "local"}, []),
    "rebase": ({"--function": "function", "--graph": "graph"}, ["--base", "1"]),
    "diff": ({"--function": "function", "--from": "config", "--to": "to",
              "--graph": "graph"}, []),
    "neighbors": (SYSTEM, []),
    "component": (SYSTEM, []),
    "swap-path": (SYSTEM, ["--sites", "0", "1"]),
    "invariant": ({"--function": "function", "--interaction": "interaction",
                   "--graph": "graph", "--probe": "config"}, []),
    "h0": ({"--interaction": "interaction", "--graph": "graph"}, []),
    "extract": ({"--function": "function", "--interaction": "interaction",
                 "--graph": "graph"}, []),
}
FILE_FLAGS = [(command, flag) for command, (files, _) in CALLS.items() for flag in files]

DEEP_ARRAY = b"[" * 200_000 + b"]" * 200_000
RAW = [
    b"", b"\xff", b'{"states": ["0", "\xff"]}', b"\xef\xbb\xbf{}", DEEP_ARRAY,
    b'{"a":' * 100_000 + b"1" + b"}" * 100_000, b'{"kind": "path", "n": ' + b"9" * 5000 + b"}",
    b"NaN", b"null", b"[]", b'"path:3"', b"\x00",
]
DEEP = "\x00deep"  # a leaf marker, written as an array nested this many times
NESTING = {DEEP + "-shallow": 40, DEEP + "-deep": 5000}
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-8, 40), st.just(0.5), st.builds(list), st.builds(dict),
    st.sampled_from(["0", "1", "2", "-1", "1/2", "1/0", "a", "", "0,1", "x", "explicit",
                     "path", "translated", "lattice_z", *NESTING]),
    st.lists(st.sampled_from(["0", "1", 0, 1, -1]), max_size=3),
)


@st.composite
def mutate(draw, value):
    """One entry of container ``value``, or of a container below it, replaced
    by a leaf or dropped, or a leaf added inside it."""
    while value:
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        child = value[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            value = child
            continue
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "drop":
            del value[key]
        elif action == "add" and isinstance(child, dict):
            child[draw(st.sampled_from(["extra", "base", "kind", "graph", *child]))] = draw(LEAVES)
        elif action == "add" and isinstance(child, list):
            child.insert(draw(st.integers(0, len(child))), draw(LEAVES))
        else:
            value[key] = draw(LEAVES)
        return


@st.composite
def contents(draw, role):
    valid = json.dumps(DOCUMENTS[role]).encode()
    kind = draw(st.sampled_from(["raw", "truncated", "mutated", "mutated", "mutated"]))
    if kind == "raw":
        return draw(st.sampled_from(RAW))
    if kind == "truncated":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    doc = copy.deepcopy(DOCUMENTS[role])
    for _ in range(draw(st.integers(1, 2))):
        draw(mutate(doc))
    text = json.dumps(doc)
    for marker, depth in NESTING.items():
        text = text.replace(json.dumps(marker), "[" * depth + "]" * depth)
    return text.encode()


def call(tmp_path, command, flag, content) -> tuple[int, str, str]:
    files, extra = CALLS[command]
    argv = [command, *extra]
    for each, role in files.items():
        path = tmp_path / f"{each[2:]}.json"
        path.write_bytes(content if each == flag else json.dumps(DOCUMENTS[role]).encode())
        argv += [each, str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_outcome(command, result):
    code, out, err = result
    if code == 0:
        assert err == "" and json.loads(out.splitlines()[-1])["command"] == command
    else:
        assert code in (1, 2) and out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert json.loads(err)["error"]["code"]


@pytest.mark.parametrize("command", CALLS)
def test_the_valid_documents_give_a_report(tmp_path, command):
    code, out, err = call(tmp_path, command, None, b"")
    assert (code, err) == (0, "") and json.loads(out.splitlines()[-1])["command"] == command


@pytest.mark.parametrize("content", [DEEP_ARRAY, b"\xff"], ids=["deep-array", "byte-ff"])
@pytest.mark.parametrize("command,flag", FILE_FLAGS, ids=[f"{c}{f}" for c, f in FILE_FLAGS])
def test_undecodable_files_are_schema_errors(tmp_path, command, flag, content):
    code, out, err = call(tmp_path, command, flag, content)
    assert (code, out) == (1, "") and err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["code"] == "schema" and "is not valid JSON" in error["message"]


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_no_input_file_ends_a_call_in_a_traceback(tmp_path_factory, data):
    command, flag = data.draw(st.sampled_from(FILE_FLAGS))
    content = data.draw(contents(CALLS[command][0][flag]))
    tmp_path = tmp_path_factory.mktemp("call", numbered=True)
    assert_one_outcome(command, call(tmp_path, command, flag, content))
