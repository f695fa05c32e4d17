#!/usr/bin/env python3
"""latticecalc benchmark: closed-loop CLI workloads with exact answer checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 25 --trace 0

One client runs the workload's fixed op list in passes.  Each op is a fresh
Python process calling ``latticecalc.cli.main(argv)``, and the next op starts
only after it has exited.  Passes repeat until the next one would end after
``--seconds`` (at least two are run).  Every op's report is checked against
an independent answer.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead against the untraced ones.  The last line of
stdout is one JSON object; the lines before it name every metric with its
unit.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import stats
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SOURCE = ROOT / "src"
BOOT = "import sys; from latticecalc.cli import main; sys.exit(main(sys.argv[1:]))"
SETUPS = 5          # set-ups per run; setup_s is their median
OP_TIMEOUT_S = 120  # a child still running after this is killed and fails
CAL_EVERY_S = 1.5   # op seconds between calibration processes
# median wall time of calibrate.py on the machine that defined the benchmark;
# reported times are scaled to that speed
CAL_REFERENCE_S = 0.30
# a file with one of these names in a child's working directory would shadow
# the builtin interaction of that id
SHADOWING = ("exclusion", "two-species-ac", "quastel2", "multispecies")

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


@dataclass
class OpResult:
    wall_s: float
    rss_kb: int
    reason: str | None   # why the answer is wrong; None when right
    trace: dict | None


def child_env(pycache: Path) -> dict[str, str]:
    """The parent's environment without PYTHON* and LATTICECALC* settings."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "LATTICECALC"))}
    env.update(PYTHONPATH=str(SOURCE), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(pycache))
    return env


def write_inputs(cwd: Path, ops) -> None:
    cwd.mkdir(parents=True)
    written: dict[str, str] = {}
    for op in ops:
        for name, text in op.files.items():
            if name.split(":")[0].split(".")[0] in SHADOWING:
                raise ValueError(f"input name {name!r} could shadow a builtin id")
            if written.setdefault(name, text) != text:
                raise ValueError(f"two ops disagree on input {name!r}")
    for name, text in written.items():
        (cwd / name).write_text(text, encoding="utf-8")


class Bench:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.ops = []
        self.min_passes = 2
        self.cwd = work
        self.env: dict[str, str] = {}
        self.out = work / "stdout.txt"
        self.err = work / "stderr.txt"
        self.trace_out = work / "trace.json"
        self.calibrations: list[float] = []
        self._since_calibration = 0.0

    # -- set-up -----------------------------------------------------------

    def setup(self, index: int) -> float:
        """Generate the inputs and run the warm-up op in a fresh directory.

        The warm-up fills a fresh bytecode cache, so every set-up compiles
        what the command imports.  Returns the set-up's wall time scaled by
        the calibration run right after it.
        """
        start = perf_counter()
        base = self.work / f"setup{index}"
        wl = workloads.build(self.workload, self.seed)
        write_inputs(base / "cwd", [wl.warmup, *wl.ops])
        self.ops, self.min_passes, self.cwd = wl.ops, wl.min_passes, base / "cwd"
        self.env = child_env(base / "pycache")
        self.run_op(wl.warmup, traced=False)
        elapsed = perf_counter() - start
        self.calibrate()
        return elapsed * CAL_REFERENCE_S / self.calibrations[-1]

    def calibrate(self) -> None:
        """Time one run of calibrate.py, the machine-speed reference."""
        self._since_calibration = 0.0
        start = perf_counter()
        subprocess.run([sys.executable, str(HERE / "calibrate.py")], cwd=self.cwd,
                       env=self.env, stdin=subprocess.DEVNULL, check=True,
                       timeout=OP_TIMEOUT_S)
        self.calibrations.append(perf_counter() - start)

    def speed(self) -> float:
        """How much slower than the reference machine this run was."""
        return sum(self.calibrations) / len(self.calibrations) / CAL_REFERENCE_S

    # -- one op -----------------------------------------------------------

    def run_op(self, op, traced: bool) -> OpResult:
        if traced:
            cmd = [sys.executable, str(HERE / "trace_child.py"),
                   str(self.trace_out), *op.argv]
        else:
            cmd = [sys.executable, "-c", BOOT, *op.argv]
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.cwd, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = self.out.read_text(encoding="utf-8", errors="replace")
        reason = workloads.judge(op, proc.returncode, stdout)
        self.attempted += 1
        if reason is not None:
            stderr = self.err.read_text(encoding="utf-8", errors="replace").strip()
            self.failures.append(f"{op.label}: {reason} {stderr[-300:]}".strip())
        trace = None
        if traced:
            # a child that died before writing its record still counts its wall
            trace = {"spans": {}, "counts": {}, "missing": [], "import_s": 0.0,
                     "tracer_s": 0.0}
            if self.trace_out.exists():
                trace = json.loads(self.trace_out.read_text(encoding="utf-8"))
                self.trace_out.unlink()
            trace.update(wall_s=wall, report_bytes=len(stdout.encode()),
                         argv=op.argv)
        return OpResult(wall, usage.ru_maxrss, reason, trace)

    def run_pass(self, traced: bool, calibrated: bool = False) -> list[OpResult]:
        results = []
        for op in self.ops:
            results.append(self.run_op(op, traced))
            self._since_calibration += results[-1].wall_s
            if calibrated and self._since_calibration >= CAL_EVERY_S:
                self.calibrate()
        return results


def pass_seconds(results: list[OpResult]) -> float:
    """Wall time of a pass: the sum of its ops, process start to exit."""
    return sum(r.wall_s for r in results)


def measure(bench: Bench, seconds: int) -> tuple[dict, list[str]]:
    setups = [bench.setup(i) for i in range(SETUPS)]
    start = perf_counter()
    passes: list[list[OpResult]] = []
    while len(passes) < bench.min_passes or (
        perf_counter() - start
        + stats.median([pass_seconds(p) for p in passes]) <= seconds
    ):
        passes.append(bench.run_pass(traced=False, calibrated=True))
    walls = [r.wall_s for p in passes for r in p]
    tail, pct, beyond = stats.tail(walls)
    raw = {
        "pass_s": stats.median([pass_seconds(p) for p in passes]),
        "op_p50_ms": 1e3 * stats.quantile(walls, 0.5),
        "op_tail_ms": 1e3 * tail,
    }
    speed = bench.speed()
    metrics = {"setup_s": stats.median(setups)}
    metrics.update((name, value / speed) for name, value in raw.items())
    metrics["peak_rss_mb"] = max(r.rss_kb for p in passes for r in p) / 1024
    notes = [
        f"passes {len(passes)}, ops {len(walls)}, "
        f"scaled setups {', '.join(f'{s:.3f}' for s in setups)} s",
        f"op_tail_ms is p{pct:.1f} of {len(walls)} ops, {beyond} beyond it",
        f"times are scaled to the reference speed: this run was {speed:.3f}x "
        f"slower ({len(bench.calibrations)} calibrations); unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ]
    return metrics, notes


def measure_traced(bench: Bench, seconds: int, trace_file: Path) -> tuple[dict, list[str]]:
    for i in range(SETUPS):
        bench.setup(i)
    start = perf_counter()
    plain: list[float] = []
    traced: list[list[OpResult]] = []
    while not traced or (
        perf_counter() - start + stats.median(plain)
        + stats.median([pass_seconds(p) for p in traced]) <= seconds
    ):
        plain.append(pass_seconds(bench.run_pass(traced=False)))
        traced.append(bench.run_pass(traced=True))
    records = [[r.trace for r in p] for p in traced]
    per_pass = [tracing.pass_metrics(p) for p in records]
    metrics = {name: stats.median([m[name] for m in per_pass])
               for name in per_pass[0]}
    metrics["trace.overhead_frac"] = (
        stats.median([pass_seconds(p) for p in traced]) / stats.median(plain) - 1)
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps(
        {"workload": bench.workload, "seed": bench.seed,
         "passes": [[dict(rec, op=i) for i, rec in enumerate(p)] for p in records]},
        sort_keys=True), encoding="utf-8")
    missing = sorted({m for p in records for rec in p for m in rec["missing"]})
    notes = [f"traced passes {len(traced)}, untraced passes {len(plain)}",
             f"spans and counts per op: {trace_file.relative_to(ROOT)}"]
    if missing:
        notes.append(f"WARNING: not traced (gone from the program): {missing}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SOURCE / "latticecalc" / "cli.py").is_file():
        print(f"perfbench: no latticecalc sources under {SOURCE}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, notes = measure_traced(bench, args.seconds, out)
            units = tracing.UNITS
        else:
            metrics, notes = measure(bench, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = len(bench.failures)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{platform.machine()}")
    for line in notes:
        print(f"# {line}")
    for reason in bench.failures[:20]:
        print(f"# FAILED {reason}")
    print(f"failed_frac = {failed / bench.attempted:.4f} "
          f"({failed} of {bench.attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
