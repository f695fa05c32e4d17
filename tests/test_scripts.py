"""Smoke tests: the experiment scripts run against the package and print
the figures they exist to show."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return done.stdout


def test_kernel_stabilization_prints_unknowns_rank_and_dimension():
    out = run_script(
        "kernel_stabilization.py", "--lengths", "8", "--interactions", "exclusion"
    )
    row = re.search(r"^\s*8\s+\[.*?\]\s+(\d+)\s+(\d+)\s+(\d+)\s", out, re.MULTILINE)
    assert row, out
    assert row.groups() == ("17", "14", "1")


def test_kernel_stabilization_runs_at_radius_two():
    out = run_script(
        "kernel_stabilization.py", "--radius", "2", "--lengths", "12",
        "--interactions", "multispecies:2",
    )
    row = re.search(r"^\s*12\s+\[.*?\]\s+(\d+)\s+(\d+)\s+(\d+)\s", out, re.MULTILINE)
    assert row, out
    assert row.groups() == ("206", "188", "2")


def test_survey_builtins_prints_finite_h0_and_h1():
    out = run_script("survey_builtins.py", "--interactions", "exclusion")
    assert "h0 4, h1 0" in out


def test_compare_reports_finds_no_difference_between_a_tree_and_itself():
    out = run_script("compare_reports.py", str(ROOT), str(ROOT), "--seeds", "23",
                     "--workloads", "kernel")
    assert out == "7 ops on 1 workloads and 62 fixed calls, 0 differences\n"


def test_compare_reports_names_every_op_another_tree_answers_differently(tmp_path):
    fake = tmp_path / "src" / "latticecalc"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("def main(argv):\n    print('{}')\n    return 0\n")
    with pytest.raises(subprocess.CalledProcessError) as failed:
        run_script("compare_reports.py", str(ROOT), str(tmp_path), "--seeds", "23",
                   "--workloads", "kernel")
    lines = failed.value.stdout.splitlines()
    assert failed.value.returncode == 1
    assert all(line.startswith("kernel seed 23 op ") and line.endswith(" stdout differs")
               for line in lines[:7])
    stdout_lines = [line for line in lines[7:-1] if line.endswith(" stdout differs")]
    assert [line.split(" (")[0] for line in stdout_lines] == [
        f"fixed call {i}" for i in range(62)]
    assert lines[-1] == f"7 ops on 1 workloads and 62 fixed calls, {len(lines) - 1} differences"
