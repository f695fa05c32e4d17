"""``cli.read_argv`` reads a well-formed call without argparse and hands
everything else to ``cli.build_parser()``.  Wherever it reads a call, its
namespace must be the one argparse gives: checked on every benchmark op, on
the malformed calls of ``test_cli`` and on generated token lists over the
command table's flags."""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecalc.cli import _COMMON, COMMANDS, _digest, build_parser, main, read_argv

from test_cli import test_bad_or_missing_flags_are_schema_errors as bad_flag_test

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (23, 5, *range(1, 11))


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # nothing in perfbench/
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = written
        sys.path.remove(str(ROOT / "perfbench"))


workloads = _workloads()


def assert_reads_as_argparse(argv):
    """The reader hands ``argv`` off, or reads it as argparse does."""
    args = read_argv(list(argv))
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(list(argv)))
    return args


@pytest.fixture(scope="module")
def benchmark_ops():
    ops = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            wl = workloads.build(name, seed)
            for op in (wl.warmup, *wl.ops):
                ops[tuple(op.argv)] = op
    return ops


def test_every_benchmark_op_is_read_without_argparse(benchmark_ops):
    assert len({argv[0] for argv in benchmark_ops}) == len(COMMANDS)
    for argv in benchmark_ops:
        assert assert_reads_as_argparse(argv) is not None, argv


def one_call_per_command(benchmark_ops):
    """The first benchmark op of each command, and that of ``component``
    again with ``--max-states``."""
    ops = {}
    for argv, op in benchmark_ops.items():
        ops.setdefault(argv[0], (list(argv), op.files))
    argv, files = ops["component"]
    return [*ops.values(), ([*argv, "--max-states", "9"], files)]


def test_the_params_are_the_required_flags_and_a_given_max_states(
        benchmark_ops, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    calls = one_call_per_command(benchmark_ops)
    assert len(calls) == len(COMMANDS) + 1
    for argv, files in calls:
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(argv) == 0, argv
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        args = build_parser().parse_args(argv)
        flags = COMMANDS[argv[0]][2]
        want = {}
        for flag, kw in flags.items():
            key = flag[2:].replace("-", "_")
            if kw.get("required"):
                want[key] = getattr(args, kw.get("dest", key))
        if "--max-states" in argv:
            want["max_states"] = args.max_states
        assert report["command"] == argv[0]
        assert report["params"] == want, argv


# the calls of test_cli's bad-or-missing-flag cases, read from its parametrize mark
BAD_FLAG_CALLS = [argv for argv, _ in bad_flag_test.pytestmark[0].args[1]]


@pytest.mark.parametrize("argv", BAD_FLAG_CALLS, ids=" ".join)
def test_malformed_calls_are_handed_off_or_read_alike(argv):
    assert_reads_as_argparse(argv)


@pytest.mark.parametrize("argv", [
    (), ("-h",), ("--version",), ("kernel", "--help"),
    ("consv", "--inter", "exclusion"),
    ("consv", "--interaction=exclusion", "--format", "xml"),
    ("kernel", "--interaction", "exclusion", "--radius", "1", "--window", "-4:4"),
    ("kernel", "--interaction", "exclusion", "--radius", " 1", "--window=-4:4"),
    ("swap-path", "--interaction", "exclusion", "--graph", "path:3", "--config", "c.json",
     "--sites=0", "1"),
    ("swap-path", "--interaction", "exclusion", "--graph", "path:3", "--config", "c.json",
     "--sites", "0"),
    ("consv", "--interaction", "exclusion", "--", "--base", "0"),
    ("consv", "--interaction", "exclusion", "extra"),
    ("h0", "--interaction", "exclusion", "--graph=--"),
])
def test_help_and_flag_errors_go_to_argparse(argv):
    assert read_argv(list(argv)) is None


@pytest.mark.parametrize("argv,expected", [
    (("consv", "--interaction", "quastel2", "--interaction", "exclusion"),
     {"interaction": "exclusion"}),
    (("consv", "--interaction", "exclusion", "--base", "-1"), {"base": "-1"}),
    (("consv", "--interaction=", "--base="), {"interaction": "", "base": ""}),
    (("invariant", "--function", "f.json", "--probe", "a.json", "--interaction", "exclusion",
      "--probe=b.json"), {"probe": ["a.json", "b.json"]}),
    (("swap-path", "--interaction", "exclusion", "--graph", "path:3", "--config", "c.json",
      "--sites", "-1", "2"), {"sites": ["-1", "2"]}),
    (("kernel", "--interaction", "exclusion", "--radius", "2", "--radius", "-1",
      "--window=-4:4", "--k=3"), {"radius": -1, "k": 3, "window": "-4:4"}),
    (("component", "--interaction", "exclusion", "--graph", "path:3", "--config", "c.json",
      "--format", "table", "--max-states", "7"), {"format": "table", "max_states": 7}),
])
def test_the_reader_takes_what_argparse_takes(argv, expected):
    args = assert_reads_as_argparse(argv)
    assert args is not None and vars(args).items() >= expected.items()


FLAGS = sorted({flag for _, _, own in COMMANDS.values() for flag in {**_COMMON, **own}})
TOKENS = [*FLAGS, *(flag[:n] for flag in FLAGS for n in (3, len(flag) - 1)),
          "--", "-h", "--help", "--version", "-", "consv", "kernel"]
VALUES = st.sampled_from(["", "x", "exclusion", "path:3", "3", "0", "-1", "-0.5", "-4:4",
                          "json", "table", "xml", "abc", " 2", "٢", "-1 2", "a=b",
                          "-x", "--", "-", "1\n"])


@st.composite
def calls(draw):
    """A command, its required flags and a few others (any command's, or an
    abbreviation), each as ``--flag value`` or ``--flag=value``, shuffled,
    sometimes with a stray token."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    flags = {**_COMMON, **COMMANDS[name][2]}
    chosen = [flag for flag, keywords in flags.items() if keywords.get("required")]
    chosen += draw(st.lists(st.sampled_from([*flags, *TOKENS]), max_size=4))
    argv = [name]
    for flag in draw(st.permutations(chosen)):
        count = flags.get(flag, {}).get("nargs", 1)
        if count == 1 and draw(st.booleans()):
            argv.append(f"{flag}={draw(VALUES)}")
        else:
            argv += [flag, *(draw(VALUES) for _ in range(count))]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS)))
    return argv


@settings(max_examples=400, deadline=None)
@given(calls())
def test_generated_calls_are_handed_off_or_read_alike(argv):
    assert_reads_as_argparse(argv)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([*COMMANDS, "-h", ""]),
       st.lists(st.one_of(st.sampled_from(TOKENS), VALUES), max_size=8))
def test_generated_token_lists_are_handed_off_or_read_alike(command, tokens):
    assert_reads_as_argparse([command, *tokens])


@pytest.mark.parametrize("raw", [b"", b"{}", "été".encode(), bytes(range(256)) * 9])
def test_the_digest_is_sha256(raw):
    assert _digest(raw) == "sha256:" + hashlib.sha256(raw).hexdigest()


def test_the_digest_of_every_benchmark_input_file_is_sha256(benchmark_ops):
    files = {text for op in benchmark_ops.values() for text in op.files.values()}
    assert files
    for text in files:
        raw = text.encode("utf-8")
        assert _digest(raw) == "sha256:" + hashlib.sha256(raw).hexdigest()


def test_the_digest_falls_back_to_hashlib(monkeypatch):
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert _digest(b"abc") == "sha256:" + hashlib.sha256(b"abc").hexdigest()
