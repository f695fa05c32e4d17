#!/usr/bin/env python3
"""Check that two source trees answer every benchmark op byte for byte alike.

Each workload of ``perfbench/workloads.py`` is built at each seed, its input
files are written once into a scratch directory, and every op, the warm-up
included, runs once under each tree's ``src``.  So does a fixed list of
calls: the parser's (the help of every subcommand, the version, flag errors,
the dash-led or repeated values a command line may carry, and integers out of
their range), five refusals of the cap rule, two answers on lattice ranges
far past their window, four ``--format table`` reports, three kernels at
k = 2, whose rows come from two template offsets, a kernel at R = 2 whose
elimination meets pivot entries other than 1, three kernels whose patterns
hold many sites off the fired edge, and ``consv`` at every base of every
builtin, not only at the declared one.
Stdout, stderr and exit status must be identical.  One line is printed per
difference, and the exit status is 1 when there is any.

Example, from the root of a checkout, against a copy of the parent commit:

    python3 scripts/compare_reports.py ../parent . --seeds 23 5
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracles  # noqa: E402
import workloads  # noqa: E402

BOOT = "import sys; from latticecalc.cli import main; sys.exit(main(sys.argv[1:]))"
OP_TIMEOUT_S = 120
COMMANDS = ("consv", "exchangeable", "expand", "rebase", "diff", "neighbors", "component",
            "swap-path", "invariant", "h0", "extract", "kernel")
PARSER_CALLS = [
    ["--help"],
    *([name, "--help"] for name in COMMANDS),
    ["--version"],
    ["kernel", "--interaction", "exclusion", "--radius", "abc", "--window=-8:8"],
    ["component", "--interaction", "exclusion", "--graph", "lattice:1:-2:2",
     "--config", "one.json", "--max-states", "x"],
    ["consv"],
    ["consv", "--interaction", "exclusion", "--format", "xml"],
    ["no-such-command"],
    ["consv", "--inter", "exclusion"],
    ["consv", "--interaction", "exclusion", "--base", "-1"],
    ["kernel", "--interaction", "exclusion", "--radius", "1", "--window", "-4:4"],
    ["consv", "--interaction", "quastel2", "--interaction", "exclusion"],
    ["kernel", "--interaction", "exclusion", "--radius", "-1", "--window=-4:4"],
    ["h0", "--interaction", "exclusion", "--graph", "path:0"],
    ["h0", "--interaction", "exclusion", "--graph", "cycle:2"],
    ["h0", "--interaction", "exclusion", "--graph", "lattice:0:0:3"],
    ["h0", "--interaction", "exclusion", "--graph", "lattice:1:3:0"],
    ["consv", "--interaction", "multispecies:0"],
]
# the cap rule's refusals, worded with the full count, and lattice ranges past their window
CAP_CALLS = [
    ["h0", "--interaction", "exclusion", "--graph", "path:30"],
    ["kernel", "--interaction", "exclusion", "--radius", "10", "--window=-60:60"],
    ["h0", "--interaction", "exclusion", "--graph", "path:300000"],
    ["h0", "--interaction", "exclusion", "--graph", "path:1000000000000"],
    ["neighbors", "--interaction", "exclusion", "--graph", "lattice:1:0:99999999",
     "--config", "one.json"],
    ["h0", "--interaction", "exclusion", "--graph", "lattice:99999999999:0:3"],
    ["kernel", "--interaction", "exclusion", "--radius", "0", "--k", "99999999999",
     "--window=-6:6"],
]
# the table renderer, on the calls that read no input file
TABLE_CALLS = [
    ["consv", "--interaction", "exclusion"],
    ["exchangeable", "--interaction", "quastel2"],
    ["h0", "--interaction", "exclusion", "--graph", "path:4"],
    ["kernel", "--interaction", "exclusion", "--radius", "1", "--window=-4:4"],
]
# kernels at k = 2: the rows of both template offsets, mapped to window columns
RANGE_TWO_CALLS = [
    ["kernel", "--interaction", "multispecies:2", "--k", "2", "--radius", "1", "--window=-8:8"],
    ["kernel", "--interaction", "two-species-ac", "--k", "2", "--radius", "1", "--window=-8:8",
     "--base=-1"],
    ["kernel", "--interaction", "exclusion", "--k", "2", "--radius", "2", "--window=-10:10"],
]
# a kernel eliminating against pivot entries other than 1; its basis has 1/2 entries
NON_UNIT_PIVOT_CALLS = [
    ["kernel", "--interaction", "two-species-ac", "--radius", "2", "--window=-10:10", "--base=1"],
]
# kernels at large k·R, whose patterns hold up to k·R sites off the fired edge
DEEP_PATTERN_CALLS = [
    ["kernel", "--interaction", "exclusion", "--radius", "6", "--window=-20:20"],
    ["kernel", "--interaction", "multispecies:2", "--k", "2", "--radius", "2", "--window=-10:10"],
    ["kernel", "--interaction", "two-species-ac", "--radius", "3", "--window=-14:14", "--base=1"],
]
FIXED_CALLS = [
    *PARSER_CALLS,
    *CAP_CALLS,
    *([*argv, "--format", "table"] for argv in TABLE_CALLS),
    *RANGE_TWO_CALLS,
    *NON_UNIT_PIVOT_CALLS,
    *DEEP_PATTERN_CALLS,
    *(["consv", "--interaction", name, f"--base={label}"]
      for name in workloads.BUILTINS for label in oracles.interaction(name)[0]),
]


def run_op(root: Path, argv, cwd: Path, pycache: Path):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "LATTICECALC"))}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(pycache))
    done = subprocess.run([sys.executable, "-c", BOOT, *argv], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=OP_TIMEOUT_S)
    return done.stdout, done.stderr, done.returncode


def compare_call(old: Path, new: Path, what: str, argv, cwd: Path, scratch: Path) -> int:
    """Print one line per stream on which the trees answer ``argv``
    differently; return the number of such streams."""
    before = run_op(old, argv, cwd, scratch / "pycache-old")
    after = run_op(new, argv, cwd, scratch / "pycache-new")
    differences = 0
    for stream, a, b in zip(("stdout", "stderr", "exit status"), before, after):
        if a != b:
            print(f"{what} ({' '.join(argv)}): {stream} differs")
            differences += 1
    return differences


def compare(old: Path, new: Path, name: str, seed: int, scratch: Path) -> tuple[int, int]:
    """Print one line per op and stream on which the trees differ; return the
    number of ops run and of differences."""
    wl = workloads.build(name, seed)
    ops = [wl.warmup, *wl.ops]
    cwd = scratch / f"{name}-{seed}"
    cwd.mkdir()
    for op in ops:
        for fname, text in op.files.items():
            (cwd / fname).write_text(text, encoding="utf-8")
    differences = sum(compare_call(old, new, f"{name} seed {seed} op {i}", op.argv, cwd, scratch)
                      for i, op in enumerate(ops))
    return len(ops), differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the reference tree")
    parser.add_argument("new", type=Path, help="root of the tree under test")
    parser.add_argument("--seeds", type=int, nargs="+", default=[23, 5])
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not (root / "src" / "latticecalc" / "cli.py").is_file():
            parser.error(f"no latticecalc sources under {root}")
    old, new = args.old.resolve(), args.new.resolve()
    differences = ops = 0
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as scratch:
        scratch = Path(scratch)
        for name in args.workloads:
            for seed in args.seeds:
                count, found = compare(old, new, name, seed, scratch)
                ops += count
                differences += found
        (scratch / "fixed").mkdir()
        for i, argv in enumerate(FIXED_CALLS):
            differences += compare_call(old, new, f"fixed call {i}", argv,
                                        scratch / "fixed", scratch)
    print(f"{ops} ops on {len(args.workloads)} workloads and {len(FIXED_CALLS)} fixed "
          f"calls, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
