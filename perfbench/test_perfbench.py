"""Tests of the benchmark's own logic.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

The last tests start real latticecalc children from ``src/``.
"""

import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# tail percentile


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = stats.tail(range(1, 31))
    assert (pct, beyond) == (pytest.approx(100 * 20 / 30), 10)
    assert 19 < value < 21  # the 20th of 30, smoothed over its neighbours


def test_tail_order_does_not_matter():
    samples = [5.0, 1.0, 9.0, 3.0] * 5
    assert stats.tail(samples) == stats.tail(sorted(samples))


def test_tail_is_never_below_the_median():
    assert stats.tail([3.0, 1.0, 2.0]) == (pytest.approx(2.0), 50.0, 1)
    assert stats.tail(range(12)) == (pytest.approx(5.5), 50.0, 6)
    assert stats.tail(range(20))[1:] == (50.0, 10)
    assert stats.tail(range(21))[1:] == (pytest.approx(100 * 11 / 21), 10)


def test_quantile_estimates():
    assert stats.quantile([4.0] * 9, 0.9) == pytest.approx(4.0)
    assert stats.quantile(range(1, 102), 0.5) == pytest.approx(51)
    assert stats.quantile(range(1, 101), 0.9) == pytest.approx(90.9, abs=0.5)


# ---------------------------------------------------------------------------
# spans and self time


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    out = tracing.summarize(spans)
    assert out["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert out["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert out["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_recursion_is_not_counted_twice():
    spans = [["r", 0.0, 10.0, -1], ["x", 1.0, 2.0, 0], ["r", 3.0, 7.0, 0]]
    out = tracing.summarize(spans)
    assert out["r"]["total_s"] == 10.0
    assert out["r"]["self_s"] == 9.0  # outer 10 - 1 - 4, inner 4


def test_recorder_nests_real_calls():
    rec = tracing.Recorder()
    inner = rec.timed("inner", lambda x: x + 1)
    outer = rec.timed("outer", lambda x: inner(x) * inner(x))
    hot = rec.counted("hot", lambda: None)
    assert outer(1) == 4
    hot()
    hot()
    names = [(s[0], s[3]) for s in rec.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s[1] <= s[2] for s in rec.spans)
    assert rec.counts == {"hot": 2}
    summary = tracing.summarize(rec.spans)
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"])


# ---------------------------------------------------------------------------
# closed-form oracles


def _brute_force_h0(name, n):
    """Configurations, transition pairs and classes of ``name`` on path:n."""
    labels, _, _ = oracles.interaction(name)
    configs = list(product(range(len(labels)), repeat=n))
    pairs = set()
    parent = {c: c for c in configs}

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for c in configs:
        for _, after in oracles.neighbors(name, c, 0):
            pairs.add(frozenset((c, after)))
            parent[find(c)] = find(after)
    classes = len({find(c) for c in configs})
    return len(configs), len(pairs), classes


@pytest.mark.parametrize("name", ["exclusion", "multispecies:2", "multispecies:3",
                                  "two-species-ac", "quastel2"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_h0_closed_forms_match_enumeration(name, n):
    want = oracles.h0_counts(name, "path", n)
    assert _brute_force_h0(name, n) == (want["dim_c0"], want["dim_c1"], want["h0"])
    assert want["h1"] == want["dim_c1"] - want["dim_c0"] + want["h0"]


def test_h0_closed_forms_at_workload_sizes():
    assert oracles.h0_counts("exclusion", "path", 11)["dim_c1"] == 10 * 2 ** 9
    assert oracles.h0_counts("exclusion", "cycle", 11)["dim_c1"] == 11 * 2 ** 9
    assert oracles.h0_counts("multispecies:2", "path", 7)["h0"] == 36
    assert oracles.h0_counts("two-species-ac", "path", 7)["h0"] == 15
    assert oracles.h0_counts("quastel2", "path", 7)["h0"] == 255


def test_component_sizes():
    assert oracles.multinomial(12, 6) == 924
    assert oracles.multinomial(14, 7) == 3432
    assert oracles.multinomial(10, 2, 2) == 1260
    assert oracles.central_trinomial(7) == 393
    assert len(oracles.component_lines("exclusion", (1, 0, 1, 0, 1, 0), -3)) == 19
    assert len(oracles.component_lines("two-species-ac", (1,) * 5, 0)) == (
        oracles.central_trinomial(5) - 1)


def test_kernel_unknowns_and_dimensions():
    assert oracles.kernel_unknowns("exclusion", 1, 17) == 33
    assert oracles.kernel_unknowns("multispecies:2", 1, 13) == 74
    assert oracles.kernel_unknowns("quastel2", 1, 17) == 98
    assert oracles.kernel_unknowns("exclusion", 2, 15) == 55
    assert [len(oracles.consv_basis(n)) for n in workloads.BUILTINS] == [1, 2, 3, 1, 2]


def test_mobius_components_reassemble():
    labels = ("0", "1", "2")
    table = {",".join(labels[s] for s in key): Fraction(i * i - 7, 3)
             for i, key in enumerate(product(range(3), repeat=2))}
    comps = oracles.mobius(labels, 0, [4, 9], table)
    for key in product(range(3), repeat=2):
        total = Fraction(0)
        for support, comp in comps.items():
            picked = [labels[key[[4, 9].index(s)]] for s in support]
            total += comp.get(",".join(picked), Fraction(0))
        assert total == table[",".join(labels[s] for s in key)]


def test_replay_reaches_a_swap_and_rejects_a_bad_step():
    eta = (1, 0, 2)
    docs = [{"edge": [10, 11], "from": ["1", "0"], "to": ["0", "1"]}]
    assert oracles.replay("multispecies:2", eta, 10, docs) == (0, 1, 2)
    bad = [{"edge": [10, 11], "from": ["0", "1"], "to": ["1", "0"]}]
    assert oracles.replay("multispecies:2", eta, 10, bad) is None


# ---------------------------------------------------------------------------
# judging answers


def _report(outputs, verification=()):
    import json
    return json.dumps({"outputs": outputs, "verification": list(verification)}) + "\n"


def test_judge_accepts_the_right_answer_only():
    op = workloads._h0_op("exclusion", "path", 4)
    right = oracles.h0_counts("exclusion", "path", 4)
    assert workloads.judge(op, 0, _report(right, [["rank-nullity", "pass"]])) is None
    wrong = dict(right, h0=right["h0"] + 1)
    assert "counts" in workloads.judge(op, 0, _report(wrong))
    assert "verification" in workloads.judge(
        op, 0, _report(right, [["rank-nullity", "fail"]]))
    assert "exit status" in workloads.judge(op, 2, "")
    assert workloads.judge(op, 0, "") == "no report line"


def test_every_workload_builds_deterministically():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
        assert [op.files for op in a.ops] == [op.files for op in b.ops]
        assert a.ops, name


def test_inputs_never_shadow_a_builtin(tmp_path):
    op = workloads.Op(["consv", "--interaction", "exclusion"], lambda lines: None,
                      {"exclusion": "{}"})
    with pytest.raises(ValueError):
        run.write_inputs(tmp_path / "cwd", [op])


def test_child_environment_is_hermetic(monkeypatch, tmp_path):
    monkeypatch.setenv("LATTICECALC_CAPS", "max_bfs=1")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    env = run.child_env(tmp_path)
    assert "LATTICECALC_CAPS" not in env
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == str(run.SOURCE)


# ---------------------------------------------------------------------------
# real children


@pytest.fixture
def bench(tmp_path):
    b = run.Bench("cli-small", 0, tmp_path)
    b.cwd = tmp_path / "cwd"
    b.cwd.mkdir()
    b.env = run.child_env(tmp_path / "pycache")
    return b


def test_a_wrong_answer_counts_as_a_failed_op(bench):
    good = workloads._h0_op("exclusion", "path", 4)
    wrong = workloads.Op(good.argv, lambda lines: workloads._expect(
        lines[-1]["outputs"]["h0"], 6, "h0"))
    assert bench.run_op(good, traced=False).reason is None
    assert bench.run_op(wrong, traced=False).reason == "h0: got 5, want 6"
    assert bench.attempted == 2
    assert len(bench.failures) == 1


def test_traced_child_reaches_every_layer_boundary(bench):
    result = bench.run_op(workloads._h0_op("exclusion", "path", 4), traced=True)
    assert result.reason is None
    trace = result.trace
    assert trace["missing"] == []
    assert trace["counts"]["cohomology.h0_pairs"] == 12
    assert trace["spans"]["linalg.add"]["calls"] == 12
    assert trace["counts"]["linalg.rows_kept"] == 11
    assert trace["spans"]["cli.main"]["total_s"] < result.wall_s
    metrics = tracing.pass_metrics([trace])
    assert set(metrics) | {"trace.overhead_frac"} == set(tracing.UNITS)
