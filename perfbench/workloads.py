"""The benchmark's workloads: fixed op lists with a check for every answer.

Each op is one ``latticecalc`` invocation: an argv, the input files it reads
(written into the child's working directory under names that cannot shadow
a builtin id) and a check that returns None for a correct report or a
one-line reason.  The seed picks window translations, particle
arrangements, random local functions and the op order; the answers are
invariant under those choices, so every check is exact.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable

import oracles

WORKLOADS = ("kernel", "h0", "reach", "cli-small")
BUILTINS = ("exclusion", "multispecies:2", "multispecies:3", "two-species-ac",
            "quastel2")


@dataclass
class Op:
    argv: list[str]
    check: Callable[[list], str | None]  # parsed stdout lines -> failure reason
    files: dict[str, str] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv[:3])


@dataclass
class Workload:
    name: str
    warmup: Op
    ops: list[Op]
    min_passes: int = 2  # untraced passes per run, however long they take


def judge(op: Op, returncode: int, stdout: str) -> str | None:
    """Why the op's result is wrong, or None when it is right.

    Every op must exit 0, end with a report line, pass every verification
    entry it lists and satisfy its own answer check.
    """
    if returncode != 0:
        return f"exit status {returncode}"
    try:
        lines = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError as exc:
        return f"unparsable output: {exc}"
    if not lines or "outputs" not in lines[-1]:
        return "no report line"
    failed = [name for name, status in lines[-1].get("verification", [])
              if status != "pass"]
    if failed:
        return f"verification failed: {failed}"
    try:
        return op.check(lines)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _first_failure(*reasons) -> str | None:
    return next((r for r in reasons if r), None)


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))


def _config_doc(labels, base: int, eta: tuple, first: int) -> dict:
    return {"base": labels[base],
            "assignments": {str(first + i): labels[s]
                            for i, s in enumerate(eta) if s != base}}


# ---------------------------------------------------------------------------
# kernel


def _kernel_op(name, radius, lo, hi, t, base=None) -> Op:
    argv = ["kernel", "--interaction", name, "--radius", str(radius),
            f"--window={lo + t}:{hi + t}"]
    if base is not None:
        argv.append(f"--base={base}")
    labels, declared, _ = oracles.interaction(name)
    rank, basis_sha = oracles.KERNEL[(name, radius, lo, hi, base or labels[declared])]

    def check(lines):
        out = lines[-1]["outputs"]
        return _first_failure(
            _expect(out["window"], [lo + t, hi + t], "window"),
            _expect(out["unknowns"],
                    oracles.kernel_unknowns(name, radius, hi - lo + 1), "unknowns"),
            _expect(out["dimension"], len(oracles.consv_basis(name)), "dimension"),
            _expect(out["rank"], rank, "rank"),
            _expect(oracles.digest(oracles.shift_basis(out["basis"], -t)),
                    basis_sha, "basis digest"),
        )

    return Op(argv, check)


def kernel(rng: random.Random) -> Workload:
    shift = lambda: rng.randint(-40, 40)  # noqa: E731
    ops = [
        _kernel_op("exclusion", 1, -8, 8, shift()),
        _kernel_op("multispecies:2", 1, -6, 6, shift()),
        _kernel_op("two-species-ac", 1, -6, 6, shift()),
        _kernel_op("two-species-ac", 1, -6, 6, shift(), base="-1"),
        _kernel_op("quastel2", 1, -8, 8, shift()),
        _kernel_op("exclusion", 2, -7, 7, shift()),
    ]
    rng.shuffle(ops)
    return Workload("kernel", _kernel_op("quastel2", 1, -4, 4, shift()), ops)


# ---------------------------------------------------------------------------
# h0


def _h0_op(name: str, kind: str, n: int) -> Op:
    want = oracles.h0_counts(name, kind, n)

    def check(lines):
        out = lines[-1]["outputs"]
        return _expect({key: out[key] for key in want}, want, "counts")

    return Op(["h0", "--interaction", name, "--graph", f"{kind}:{n}"], check)


def h0(rng: random.Random) -> Workload:
    ops = [
        _h0_op("exclusion", "path", 11),
        _h0_op("exclusion", "cycle", 11),
        _h0_op("multispecies:2", "path", 7),
        _h0_op("two-species-ac", "path", 7),
        _h0_op("quastel2", "path", 7),
    ]
    rng.shuffle(ops)
    return Workload("h0", _h0_op("exclusion", "path", 4), ops)


# ---------------------------------------------------------------------------
# reach


def _component_op(name: str, eta: tuple, first: int, size: int, tag: str) -> Op:
    labels, base, _ = oracles.interaction(name)
    lines_want = oracles.component_lines(name, eta, first)
    sha_want = oracles.digest(lines_want)
    config = f"start-{tag}.json"
    argv = ["component", "--interaction", name,
            "--graph", f"lattice:1:{first}:{first + len(eta) - 1}",
            "--config", config]

    def check(lines):
        out = lines[-1]["outputs"]
        streamed = [json.dumps(d, sort_keys=True, separators=(",", ":"))
                    for d in lines[:-1]]
        return _first_failure(
            _expect(out["size"], size, "size"),
            _expect(out["transitions"], size - 1, "transitions"),
            _expect(out["truncated"], False, "truncated"),
            _expect(oracles.digest(streamed), sha_want, "streamed lines digest"),
        )

    files = {config: _dump(_config_doc(labels, base, eta, first))}
    return Op(argv, check, files)


def _arrangement(rng: random.Random, length: int, counts: dict[int, int],
                 base: int) -> tuple:
    cells = [s for s, c in counts.items() for _ in range(c)]
    cells += [base] * (length - len(cells))
    rng.shuffle(cells)
    return tuple(cells)


def reach(rng: random.Random) -> Workload:
    """Component searches; the L=14 window runs from two starts per pass.

    That op takes about three times as long as any other.  The tail
    percentile has ten samples beyond it, so it stays among that op's
    samples only while they number more than ten: two per pass and at
    least six passes.  Otherwise it sits on the gap below them and jumps
    with the pass count.
    """
    first = lambda: rng.randint(-40, 40)  # noqa: E731
    pairs = rng.randint(0, 3)
    ops = [
        _component_op("exclusion", _arrangement(rng, 12, {1: 6}, 0), first(),
                      oracles.multinomial(12, 6), "e12"),
        _component_op("exclusion", _arrangement(rng, 14, {1: 7}, 0), first(),
                      oracles.multinomial(14, 7), "e14"),
        _component_op("exclusion", _arrangement(rng, 14, {1: 7}, 0), first(),
                      oracles.multinomial(14, 7), "e14b"),
        _component_op("multispecies:2", _arrangement(rng, 10, {1: 2, 2: 2}, 0),
                      first(), oracles.multinomial(10, 2, 2), "m10"),
        _component_op("two-species-ac",
                      _arrangement(rng, 7, {0: pairs, 2: pairs}, 1), first(),
                      oracles.central_trinomial(7), "a7"),
    ]
    rng.shuffle(ops)
    warmup = _component_op("exclusion", _arrangement(rng, 6, {1: 3}, 0), first(),
                           oracles.multinomial(6, 3), "warm")
    return Workload("reach", warmup, ops, min_passes=6)


# ---------------------------------------------------------------------------
# cli-small: one desk-size call of every subcommand


def _consv_op(name: str) -> Op:
    def check(lines):
        out = lines[-1]["outputs"]
        got = [{k: Fraction(v) for k, v in xi.items()} for xi in out["basis"]]
        return _expect(got, oracles.consv_basis(name), "basis")

    return Op(["consv", "--interaction", name], check)


def _exchangeable_op(name: str) -> Op:
    def check(lines):
        return _expect(lines[-1]["outputs"]["exchangeable"],
                       oracles.exchangeable(name), "exchangeable")

    return Op(["exchangeable", "--interaction", name], check)


def _expand_op(rng: random.Random) -> Op:
    labels = ("0", "1", "2")
    support = sorted(rng.sample(range(-20, 20), 3))
    table = {",".join(labels[s] for s in key): _rational(rng)
             for key in product(range(3), repeat=3)}
    doc = {"states": list(labels), "base": "0", "support": support,
           "table": {k: str(v) for k, v in table.items()}}
    want = oracles.mobius(labels, 0, support, table)

    def check(lines):
        got = {tuple(c["support"]): {k: Fraction(v) for k, v in c["table"].items()}
               for c in lines[-1]["outputs"]["components"] if c["table"]}
        return _expect(got, want, "components")

    return Op(["expand", "--function", "local.json"], check,
              {"local.json": _dump(doc)})


def _translated(labels, base: int, window, radius: int, template) -> dict:
    return {"states": list(labels), "base": labels[base],
            "graph": {"kind": "lattice_z", "k": 1, "window": list(window)},
            "kind": "translated", "radius": radius,
            "template": [{"support": s, "table": {k: str(v) for k, v in t.items()}}
                         for s, t in template]}


def _random_radius1(rng: random.Random, labels, base: int, window) -> dict:
    nonbase = [lbl for i, lbl in enumerate(labels) if i != base]
    single = {a: _rational(rng) for a in nonbase}
    pair = {f"{a},{b}": _rational(rng) for a in nonbase for b in nonbase}
    return _translated(labels, base, window, 1, [([0], single), ([0, 1], pair)])


def _random_config(rng: random.Random, states: int, length: int, margin: int):
    """Random full configuration; sites within ``margin`` of an end stay base 0."""
    inner = [rng.randrange(states) for _ in range(length - 2 * margin)]
    return (0,) * margin + tuple(inner) + (0,) * margin


def cli_small(rng: random.Random) -> Workload:
    t = rng.randint(-40, 40)
    window = (t - 5, t + 5)
    length = 11
    ms2 = oracles.interaction("multispecies:2")[0]
    ac = oracles.interaction("two-species-ac")[0]
    fn = _random_radius1(rng, ms2, 0, window)
    files = {"fn.json": _dump(fn)}
    ops = [_consv_op(name) for name in BUILTINS]
    ops += [_exchangeable_op(name) for name in BUILTINS]
    ops.append(_expand_op(rng))

    # rebase: differences along interior changes are base independent
    new_base = rng.choice((1, 2))
    pairs = [(_random_config(rng, 3, length, 2), _random_config(rng, 3, length, 2))
             for _ in range(6)]

    def rebase_check(lines):
        moved = lines[-1]["outputs"]["function"]
        if moved["base"] != ms2[new_base]:
            return f"base {moved['base']!r}"
        for comp in moved["template"]:
            if any(ms2[new_base] in key.split(",") for key in comp["table"]):
                return "entry on the new base state"
        for a, b in pairs:
            old = (oracles.evaluate(ms2, fn, window, b)
                   - oracles.evaluate(ms2, fn, window, a))
            new = (oracles.evaluate(ms2, moved, window, b)
                   - oracles.evaluate(ms2, moved, window, a))
            if old != new:
                return f"difference {new} after rebase, {old} before"
        return None

    ops.append(Op(["rebase", "--function", "fn.json", "--base", ms2[new_base]],
                  rebase_check, files))

    # diff between two sparse configurations
    before = _random_config(rng, 3, length, 1)
    after = _random_config(rng, 3, length, 1)
    want_diff = (oracles.evaluate(ms2, fn, window, after)
                 - oracles.evaluate(ms2, fn, window, before))
    diff_files = dict(files)
    diff_files["from.json"] = _dump(_config_doc(ms2, 0, before, window[0]))
    diff_files["to.json"] = _dump(_config_doc(ms2, 0, after, window[0]))
    ops.append(Op(
        ["diff", "--function", "fn.json", "--from", "from.json", "--to", "to.json"],
        lambda lines: _expect(Fraction(lines[-1]["outputs"]["value"]), want_diff,
                              "value"),
        diff_files))

    # neighbors and swap-path on a multispecies window
    eta = _random_config(rng, 3, length, 0)
    graph = f"lattice:1:{window[0]}:{window[1]}"
    config_files = {"eta.json": _dump(_config_doc(ms2, 0, eta, window[0]))}
    want_nb = [doc for doc, _ in oracles.neighbors("multispecies:2", eta, window[0])]
    ops.append(Op(
        ["neighbors", "--interaction", "multispecies:2", "--graph", graph,
         "--config", "eta.json"],
        lambda lines: _expect(lines[-1]["outputs"]["transitions"], want_nb,
                              "transitions"),
        config_files))

    x, y = sorted(rng.sample(range(length), 2))
    swapped = list(eta)
    swapped[x], swapped[y] = eta[y], eta[x]
    swapped = tuple(swapped)

    def swap_check(lines):
        out = lines[-1]["outputs"]
        end = oracles.replay("multispecies:2", eta, window[0], lines[:-1])
        return _first_failure(
            _expect(out["steps"], len(lines) - 1, "steps"),
            _expect(end, swapped, "replayed endpoint"),
            _expect(out["endpoint"], _config_doc(ms2, 0, swapped, window[0]),
                    "endpoint"),
        )

    ops.append(Op(
        ["swap-path", "--interaction", "multispecies:2", "--graph", graph,
         "--config", "eta.json", "--sites", str(window[0] + x), str(window[0] + y)],
        swap_check, config_files))

    # invariant, always with probe files: a conserved density and a random family
    probes = [_random_config(rng, 3, length, 0) for _ in range(3)]
    probe_files = {f"probe{i}.json": _dump(_config_doc(ms2, 0, p, window[0]))
                   for i, p in enumerate(probes)}
    density = _translated(ms2, 0, window, 0,
                          [([0], {"1": _rational(rng), "2": _rational(rng)})])
    for fname, fdoc in (("density.json", density), ("fn.json", fn)):
        ops.append(_invariant_op(fname, fdoc, probes, probe_files, window))

    # extract: a conserved site-wise sum and a pair sum that is not conserved
    c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    good = _translated(ac, 1, window, 0, [([0], {"-1": c, "1": -c})])
    bad = _translated(ac, 1, window, 0, [([0], {"-1": c, "1": c})])
    ops.append(Op(
        ["extract", "--function", "good.json", "--interaction", "two-species-ac"],
        lambda lines: _first_failure(
            _expect(lines[-1]["outputs"]["outcome"], "conserved", "outcome"),
            _expect({k: Fraction(v) for k, v in lines[-1]["outputs"]["xi"].items()},
                    {"-1": c, "0": Fraction(0), "1": -c}, "xi")),
        {"good.json": _dump(good)}))

    def bad_check(lines):
        out = lines[-1]["outputs"]
        value = {"-1": c, "0": Fraction(0), "1": c}
        (a, b), (p, q) = out["witness"]
        return _first_failure(
            _expect(out["outcome"], "not-conserved-pair", "outcome"),
            None if value[a] + value[b] != value[p] + value[q]
            else f"witness {out['witness']} conserves the pair sum")

    ops.append(Op(
        ["extract", "--function", "bad.json", "--interaction", "two-species-ac"],
        bad_check, {"bad.json": _dump(bad)}))

    ops.append(_h0_op("exclusion", "path", 4))
    ops.append(_kernel_op("quastel2", 1, -4, 4, t))
    rng.shuffle(ops)
    return Workload("cli-small", _consv_op("exclusion"), ops)


def _invariant_op(fname, fdoc, probes, probe_files, window) -> Op:
    labels = fdoc["states"]
    violating = []
    for p in probes:
        for doc, after in oracles.neighbors("multispecies:2", p, window[0]):
            if (oracles.evaluate(labels, fdoc, window, after)
                    != oracles.evaluate(labels, fdoc, window, p)):
                violating.append(doc)
    argv = ["invariant", "--function", fname, "--interaction", "multispecies:2"]
    for name in probe_files:
        argv += ["--probe", name]

    def check(lines):
        out = lines[-1]["outputs"]
        return _first_failure(
            _expect(out["invariant"], not violating, "invariant"),
            None if out["invariant"] or out["witness"] in violating
            else f"witness {out['witness']} is not a violating transition")

    return Op(argv, check, {fname: _dump(fdoc), **probe_files})


BUILDERS = {"kernel": kernel, "h0": h0, "reach": reach, "cli-small": cli_small}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
