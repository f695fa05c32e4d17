"""Command-line front-end.

Every subcommand reads JSON inputs, runs one operation, and writes a single
deterministic JSON line: a report embedding the tool version, a digest of
every input, the outputs payload and a list of verification checks that were
re-run on the results.  ``component`` and ``swap-path`` write each
transition as a JSON line ahead of the report once the work is done.
``--format table`` renders the same payload as indented text instead.

``COMMANDS`` lists each subcommand's handler, help text and flags.  A
handler ``cmd_x(args, inputs)`` reads each input file through ``_read_json``,
which records its digest in ``inputs``, and returns its outputs, its
checks as ``(name, passed)`` pairs and, for ``component`` and ``swap-path``,
its lines.  ``main`` alone decides how a call ends: a failed check is a
``VerificationError`` naming it, raised before anything is written, and
otherwise ``_emit`` writes the report, whose command and ``params`` come
from the call and whose checks all read ``pass``.  A check the library
enforces itself (``h0``, ``kernel``, ``extract``) raises there, so its
handler lists it as passed.
``read_argv`` reads a well-formed call straight from it; help, ``--version``
and every malformed call go to the argparse parser ``build_parser`` makes
from the same table, so their texts are argparse's own.

Failures print one JSON line with an ``error.code``; schema and I/O problems
exit with status 1, domain violations and failed checks with status 2.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from . import __version__
from .cohomology import (
    CONSERVED,
    NOT_CONSERVED_PAIR,
    NONZERO_MULTI_SITE,
    UNEQUAL_SINGLE_SITE,
    configuration_count,
    extract_conserved,
    h0_h1_finite,
    invariance_kernel,
)
from .errors import LatticeCalcError, MismatchError, SchemaError, VerificationError
from .interaction import (
    Interaction,
    builtin_interaction,
    consv_basis,
    is_exchangeable,
    load_interaction,
    load_states,
    pair_exchange_path,
)
from .localfn import assemble, expand, is_exact_support
from .rationals import format_rational, parse_int, parse_object
from .sitegraph import (CYCLE, LATTICE_Z, PATH, SiteGraph, _integer_graph, graph_to_document,
                        load_graph)
from .transitions import (
    component_bfs,
    is_invariant,
    neighbors,
    swap_path,
    transition_document,
    transition_from_document,
)
from .uniform import (
    configuration,
    configuration_to_document,
    component_list_to_document,
    difference,
    evaluate,
    families_equal,
    load_configuration,
    load_local_function,
    load_uniform,
    rebase,
    uniform_to_document,
)

# each shorthand's graph kind and the form of its integer fields
_GRAPH_SHORTHANDS = {"path": (PATH, "path:n"), "cycle": (CYCLE, "cycle:n"),
                     "lattice": (LATTICE_Z, "lattice:k:a:b")}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(raw: bytes) -> str:
    try:  # the interpreter's own SHA-256: hashlib would load OpenSSL and probe every algorithm
        from _sha2 import sha256  # Python 3.12 on
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return "sha256:" + sha256(raw).hexdigest()


def _decode(raw, what: str):
    """The package's one JSON decoder, every integer read by ``parse_int``.
    Text that is not JSON, bytes that are not UTF-8, and nesting past the
    interpreter's recursion limit are a ``SchemaError`` naming ``what``."""
    try:
        return json.loads(raw, parse_int=parse_int)  # the one text-to-integer reader
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


def _read_json(path: str, inputs: dict, role: str):
    """The document in file ``path``, its digest recorded as ``inputs[role]``."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    inputs[role] = _digest(raw)
    return _decode(raw, path)


def _interaction_arg(token: str, inputs: dict) -> Interaction:
    """A builtin id names the builtin even when a file of that name exists."""
    try:
        phi = builtin_interaction(token)
    except SchemaError:
        if not (token.endswith(".json") or os.path.exists(token)):
            raise
    else:
        inputs["interaction"] = "builtin:" + token
        return phi
    return load_interaction(_read_json(token, inputs, "interaction"))


def _graph_arg(token: str, inputs: dict, sized=None) -> SiteGraph:
    """A graph file's graph, or a shorthand's: its site count goes to ``sized`` first."""
    head, _, rest = token.partition(":")
    if head in _GRAPH_SHORTHANDS:
        kind, form = _GRAPH_SHORTHANDS[head]
        bad = f"bad graph shorthand {token!r}; expected {form}, integers"
        if token.count(":") != form.count(":"):
            raise SchemaError(bad)
        inputs["graph"] = "shorthand:" + token
        return _integer_graph(kind, *(parse_int(f, bad) for f in rest.split(":")), sized=sized)
    return load_graph(_read_json(token, inputs, "graph"))


def _function_file(path: str, inputs: dict, graph_arg: str | None = None, states=None):
    """Load a uniform-function file with embedded states (and usually graph),
    over ``states`` if given: the labels must agree, the base may differ.  An
    embedded graph is read whenever it is present; ``graph_arg`` wins."""
    doc = _read_json(path, inputs, "function")
    parse_object(doc, f"function file {path}", ("states", "base"))
    own = load_states(doc)
    del doc["states"]
    embedded = load_graph(doc.pop("graph")) if "graph" in doc else None
    graph = embedded if graph_arg is None else _graph_arg(graph_arg, inputs)
    if graph is None:
        raise SchemaError(f"{path} embeds no 'graph' and no --graph was given")
    states = states or own
    if states.labels != own.labels:
        raise MismatchError("function and interaction disagree on the state space")
    return load_uniform(doc, states, graph), states, graph


def _function_doc(fn) -> dict:
    doc = uniform_to_document(fn)
    doc["states"] = list(fn.states.labels)
    doc["graph"] = graph_to_document(fn.graph)
    return doc


def _config_file(path: str, states, graph, inputs: dict, role: str, base=None):
    return load_configuration(_read_json(path, inputs, role), states, graph, base)


def _base_index(states, label: str | None) -> int:
    if label is not None:
        return states.index(label)
    if states.base_index is None:
        raise SchemaError("no base state declared; pass --base")
    return states.base_index


def _table_lines(prefix: str, value, out: list[str]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            sub = f"{prefix}.{key}" if prefix else str(key)
            _table_lines(sub, value[key], out)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            out.append(f"{prefix}: {' '.join(str(v) for v in value)}")
        else:
            for i, item in enumerate(value):
                _table_lines(f"{prefix}[{i}]", item, out)
    else:
        out.append(f"{prefix}: {value}")


def _table_row(doc) -> str:
    x, y = doc["edge"]
    return f"{x}~{y}: {','.join(doc['from'])} -> {','.join(doc['to'])}"


def _emit(args, inputs, outputs, checks, lines=()) -> int:
    """Report ``args.command``, whose ``checks`` have all passed; its params:
    the required flags and a given ``--max-states``."""
    params = {}
    for flag, keywords in COMMANDS[args.command][2].items():
        value = getattr(args, _dest(flag, keywords))
        if keywords.get("required") or (flag == "--max-states" and value is not None):
            params[flag[2:].replace("-", "_")] = value
    report = {
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "params": params,
        "tool": "latticecalc",
        "verification": [[name, "pass"] for name, _ in checks],
        "version": __version__,
    }
    render = _table_row if args.format == "table" else _dumps
    # a document shared by several lines is rendered once
    rendered = {key: render(doc) for key, doc in {id(d): d for d in lines}.items()}
    rows = [rendered[id(doc)] for doc in lines]
    if args.format == "table":
        _table_lines("", outputs, rows)
        rows += [f"check {name}: pass" for name, _ in checks]
        text = "\n".join(rows) + "\n"
    else:
        text = "".join(row + "\n" for row in rows) + _dumps(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _system(args, inputs: dict):
    """The interaction, graph and configuration a ``_SYSTEM`` command reads."""
    phi = _interaction_arg(args.interaction, inputs)
    graph = _graph_arg(args.graph, inputs)
    return phi, graph, _config_file(args.config, phi.states, graph, inputs, "config")


def cmd_consv(args, inputs):
    phi = _interaction_arg(args.interaction, inputs)
    base = _base_index(phi.states, args.base)
    basis = consv_basis(phi, base)
    outputs = {
        "base": phi.states.labels[base],
        "dimension": len(basis),
        "basis": [xi.to_document() for xi in basis],
    }
    return outputs, [("pair-sum-constant", all(xi.pair_sum_constant(phi) for xi in basis))]


def cmd_exchangeable(args, inputs):
    phi = _interaction_arg(args.interaction, inputs)
    answer = is_exchangeable(phi)
    checks = []
    if answer:  # each path is a chain of interaction edges from (a, b) to (b, a)
        realized = True
        for a in range(phi.states.n):
            for b in range(phi.states.n):
                cur = (a, b)
                for step in pair_exchange_path(phi, a, b):
                    realized &= step in phi.edges and cur == step[0]
                    cur = step[1]
                realized &= cur == (b, a)
        checks.append(("pair-path-realized", realized))
    return {"exchangeable": answer}, checks


def cmd_expand(args, inputs):
    doc = _read_json(args.function, inputs, "function")
    parse_object(doc, f"function file {args.function}", ("states",))
    states = load_states(doc)
    fn = load_local_function({k: v for k, v in doc.items() if k not in ("states", "base")}, states)
    base = _base_index(states, args.base)
    comps = expand(fn, base)
    rebuilt = assemble(comps, fn.support, states)
    exact = all(is_exact_support(c, base) for k, c in comps.items() if k)
    outputs = {
        "base": states.labels[base],
        "components": component_list_to_document(comps),
    }
    return outputs, [("reassemble", rebuilt == fn), ("exact-support", exact)]


def cmd_rebase(args, inputs):
    fn, states, _ = _function_file(args.function, inputs, args.graph)
    moved = rebase(fn, states.index(args.base))
    back = rebase(moved, fn.base_index)
    return {"function": _function_doc(moved)}, [("involution", families_equal(back, fn))]


def cmd_diff(args, inputs):
    fn, states, graph = _function_file(args.function, inputs, args.graph)
    before = _config_file(args.from_config, states, graph, inputs, "from", fn.base_index)
    after = _config_file(args.to_config, states, graph, inputs, "to", fn.base_index)
    value = difference(fn, before, after)
    direct = evaluate(fn, after) - evaluate(fn, before)
    return {"value": format_rational(value)}, [("evaluation-consistent", direct == value)]


def cmd_neighbors(args, inputs):
    phi, _, eta = _system(args, inputs)
    found = neighbors(phi, eta)
    docs = [tr.to_document() for tr in found]
    ok = all(transition_from_document(doc, phi, tr.before) == tr for doc, tr in zip(docs, found))
    return {"count": len(found), "transitions": docs}, [("round-trip", ok)]


def cmd_component(args, inputs):
    phi, _, eta = _system(args, inputs)
    result = component_bfs(phi, eta, max_states=args.max_states)
    keys = [(edge, phi_edge) for _, edge, phi_edge, _ in result.steps]
    docs = {key: transition_document(*key, phi.states.labels) for key in dict.fromkeys(keys)}
    # each distinct line is read back once from its bytes, each step checked
    read_back = _decode(_dumps(list(docs.values())), "the transition lines")
    moves = {key: result.codes.read(doc) for key, doc in zip(docs, read_back)}
    try:
        ok = all(
            result.codes.apply(moves[key], before) == after
            for key, (before, *_, after) in zip(keys, result.steps)
        )
    except MismatchError:
        ok = False
    outputs = {
        "size": len(result.visited),
        "transitions": len(keys),
        "truncated": result.truncated,
    }
    return outputs, [("round-trip", ok)], [docs[key] for key in keys]


def cmd_swap_path(args, inputs):
    phi, graph, eta = _system(args, inputs)
    x, y = (graph.parse_site(token) for token in args.sites)
    path = swap_path(phi, eta, x, y)
    docs = [tr.to_document() for tr in path]
    cur = eta
    for doc in docs:
        cur = transition_from_document(doc, phi, cur).after
    swapped = eta.with_sites({x: eta.state_at(y), y: eta.state_at(x)})
    outputs = {
        "steps": len(docs),
        "endpoint": configuration_to_document(cur),
    }
    return outputs, [("endpoint-swap", cur == swapped)], docs


def cmd_invariant(args, inputs):
    phi = _interaction_arg(args.interaction, inputs)
    fn, states, graph = _function_file(args.function, inputs, args.graph, phi.states)
    probes = []
    for i, path in enumerate(args.probe or []):
        probes.append(_config_file(path, states, graph, inputs, f"probe{i}", fn.base_index))
    if not probes:
        probes = [configuration(graph, states, fn.base_index, {})]
    check = is_invariant(fn, phi, state_probe=probes)
    outputs = {
        "invariant": check.invariant,
        "witness": check.witness.to_document() if check.witness else None,
        "probes": check.probes_checked,
        "transitions": check.transitions_checked,
        "coverage": check.coverage,
    }
    return outputs, []


def cmd_h0(args, inputs):
    phi = _interaction_arg(args.interaction, inputs)
    graph = _graph_arg(args.graph, inputs, lambda sites: configuration_count(phi, sites))
    summary = h0_h1_finite(phi, graph)
    outputs = {
        "dim_c0": summary.dim_c0,
        "dim_c1": summary.dim_c1,
        "rank": summary.rank_d,
        "h0": summary.h0,
        "h1": summary.h1,
    }
    return outputs, [("rank-nullity", True)]


def cmd_extract(args, inputs):
    phi = _interaction_arg(args.interaction, inputs)
    fn, states, _ = _function_file(args.function, inputs, args.graph, phi.states)
    result = extract_conserved(fn, phi)
    labels = states.labels
    witness = None
    if result.outcome in (UNEQUAL_SINGLE_SITE, NONZERO_MULTI_SITE):
        witness = list(result.witness)
    elif result.outcome == NOT_CONSERVED_PAIR:
        (a, b), (c, d) = result.witness
        witness = [[labels[a], labels[b]], [labels[c], labels[d]]]
    outputs = {
        "outcome": result.outcome,
        "xi": result.xi.to_document() if result.xi else None,
        "witness": witness,
    }
    return outputs, [("sitewise-sum-matches", True)] if result.outcome == CONSERVED else []


def cmd_kernel(args, inputs):
    phi = _interaction_arg(args.interaction, inputs)
    if args.window is not None and args.graph is not None:
        raise SchemaError("kernel takes --window or --graph, not both")
    if args.k is not None and args.window is None:
        raise SchemaError("--k sets the range of a --window lattice; pass --window")
    if args.window is not None:
        a, _, b = args.window.partition(":")
        bad = f"bad window {args.window!r}; expected a:b"
        k = 1 if args.k is None else args.k
        token = f"lattice:{k}:{parse_int(a, bad)}:{parse_int(b, bad)}"
    elif args.graph is not None:
        token = args.graph
    else:
        raise SchemaError("kernel needs --window a:b or --graph")
    graph = _graph_arg(token, inputs)
    base = _base_index(phi.states, args.base)
    report = invariance_kernel(phi, args.radius, graph, base)
    outputs = {
        "window": list(report.window),
        "k": report.k,
        "R": report.radius,
        "inner_window": list(report.inner_window),
        "unknowns": report.unknown_count,
        "rank": report.constraint_rank,
        "dimension": report.dimension,
        "basis": [uniform_to_document(fn) for fn in report.basis],
    }
    return outputs, [("basis-annihilates-all-rows", True)]


# ---------------------------------------------------------------------------
# parser


def _int_flag(text: str) -> int:
    import argparse
    try:  # argparse puts the flag's name in front of this error's message
        return parse_int(text)
    except SchemaError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# name: (handler, help text, flags in help order after _COMMON's, with add_argument keywords)
_COMMON = {"--format": {"choices": ("json", "table"), "default": "json"},
           "--out": {"help": "write the report to this file instead of stdout"}}
_REQUIRED = {"required": True}
_SYSTEM = {"--interaction": _REQUIRED, "--graph": _REQUIRED, "--config": _REQUIRED}
COMMANDS = {
    "consv": (cmd_consv, "basis of conserved quantities", {
        "--interaction": _REQUIRED,
        "--base": {"help": "base state label (defaults to the declared one)"}}),
    "exchangeable": (cmd_exchangeable, "decide exchangeability", {"--interaction": _REQUIRED}),
    "expand": (cmd_expand, "exact-support components of a local function",
               {"--function": _REQUIRED, "--base": {}}),
    "rebase": (cmd_rebase, "rewrite a uniform function over a new base state",
               {"--function": _REQUIRED, "--base": _REQUIRED, "--graph": {}}),
    "diff": (cmd_diff, "difference of a uniform function along two configurations", {
        "--function": _REQUIRED, "--from": {"dest": "from_config", "required": True},
        "--to": {"dest": "to_config", "required": True}, "--graph": {}}),
    "neighbors": (cmd_neighbors, "single transitions out of a configuration", _SYSTEM),
    "component": (cmd_component, "breadth-first reachable component",
                  {**_SYSTEM, "--max-states": {"type": _int_flag}}),
    "swap-path": (cmd_swap_path, "transition sequence exchanging two sites", {
        **_SYSTEM, "--sites": {"nargs": 2, "required": True, "metavar": ("X", "Y")}}),
    "invariant": (cmd_invariant, "probe a uniform function for invariance", {
        "--function": _REQUIRED, "--interaction": _REQUIRED, "--graph": {},
        "--probe": {"action": "append", "help": "configuration file; repeatable"}}),
    "h0": (cmd_h0, "exact cochain dimensions of a finite system",
           {"--interaction": _REQUIRED, "--graph": _REQUIRED}),
    "extract": (cmd_extract, "decide if a uniform function is a conserved sum",
                {"--function": _REQUIRED, "--interaction": _REQUIRED, "--graph": {}}),
    "kernel": (cmd_kernel, "invariance kernel over a lattice window", {
        "--interaction": _REQUIRED, "--radius": {"type": _int_flag, "required": True},
        "--window": {"help": "a:b window bounds (use --window=-6:6 form)"},
        "--k": {"type": _int_flag, "help": "interaction range for --window"},
        "--graph": {}, "--base": {}}),
}
# dash-led values argparse takes as values: its negative numbers, in ASCII digits only
_NEGATIVE = re.compile("-[0-9]+|-[0-9]*\\.[0-9]+")


def build_parser():
    """The argparse parser of ``COMMANDS``, for every call ``read_argv`` hands off."""
    import argparse  # here, not at the top: a well-formed call never builds it

    class Parser(argparse.ArgumentParser):  # subparsers are built from it too
        def error(self, message: str):  # reported like every other error
            raise SchemaError(f"{self.prog}: {message}")

        def _get_values(self, action, arg_strings):  # argparse would store "--flag=--" as []
            if action.nargs is None and arg_strings == ["--"]:
                raise argparse.ArgumentError(action, "expected one argument")
            return super()._get_values(action, arg_strings)

    parser = Parser(prog="latticecalc",
                    description="Exact calculators for interacting-particle conservation laws.")
    parser.add_argument("--version", action="version", version="latticecalc " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        for flag, keywords in {**_COMMON, **flags}.items():
            p.add_argument(flag, **keywords)
    return parser


def _dest(flag: str, keywords: dict) -> str:
    """The attribute argparse stores ``flag`` under."""
    return keywords.get("dest", flag[2:].replace("-", "_"))


def read_argv(argv: list[str]):
    """``build_parser().parse_args(argv)`` of a well-formed call, read without argparse;
    None for help, an unknown, abbreviated, bad or missing flag, or any other call."""
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, own = COMMANDS[argv[0]]
    flags = {**_COMMON, **own}
    dest = {flag: _dest(flag, kw) for flag, kw in flags.items()}
    args = SimpleNamespace(command=argv[0], func=handler,
                           **{dest[flag]: kw.get("default") for flag, kw in flags.items()})
    i = 1
    while i < len(argv):
        flag, eq, explicit = argv[i].partition("=")
        kw = flags.get(flag)
        if kw is None:
            return None
        n = kw.get("nargs", 1)
        if eq:  # argparse takes any text after "=" as the value, but refuses "--"
            if n != 1 or explicit == "--":
                return None
            values, i = [explicit], i + 1
        else:
            values, i = list(argv[i + 1:i + 1 + n]), i + 1 + n
            if len(values) < n or any(
                    v.startswith("-") and not _NEGATIVE.fullmatch(v) for v in values):
                return None
        try:
            values = [parse_int(v) for v in values] if kw.get("type") is _int_flag else values
        except SchemaError:
            return None
        if "choices" in kw and values[0] not in kw["choices"]:
            return None
        value = values if n != 1 else values[0]
        if kw.get("action") == "append":
            value = (getattr(args, dest[flag]) or []) + [value]
        setattr(args, dest[flag], value)
    required = [dest[flag] for flag, kw in flags.items() if kw.get("required")]
    return None if any(getattr(args, name) is None for name in required) else args


def main(argv=None) -> int:
    try:
        args = read_argv(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
        inputs: dict = {}
        outputs, checks, *lines = args.func(args, inputs)
        for name, passed in checks:
            if not passed:
                raise VerificationError(f"check {name} failed")
        return _emit(args, inputs, outputs, checks, *lines)
    except LatticeCalcError as exc:
        line = _dumps({"error": {"code": exc.code, "message": str(exc)}})
        sys.stderr.write(line + "\n")
        return exc.exit_status
    except OSError as exc:
        line = _dumps({"error": {"code": "io", "message": str(exc)}})
        sys.stderr.write(line + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
