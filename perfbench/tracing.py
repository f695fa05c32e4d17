"""Per-layer spans and counts for latticecalc, recorded from outside it.

``install`` wraps the entry points of each ``latticecalc`` module in a
running interpreter.  A wrapped function is replaced in every module whose
globals refer to it, so a call is caught where the caller looks the name
up (``cohomology`` sees ``linalg.nullspace_of``, ``transitions`` sees its
own ``difference``).  Methods are replaced on their class.  Hot, tiny
callables get count-only wrappers.  No program source is touched.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1; spans stay in memory until the command ends.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._reducers: dict[int, object] = {}

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_items(self, name: str, fn):
        """Wrap a generator function, counting the items it yields."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                yield item

        return wrapper

    def note_reducer(self, kept, args) -> None:
        self.bump("linalg.rows_kept", bool(kept))
        self._reducers.setdefault(id(args[0]), args[0])

    def finish(self) -> None:
        """Count the nonzeros left in the pivot rows of every reducer used."""
        self.counts["linalg.fill_nnz"] = sum(
            len(row) for r in self._reducers.values() for row in r.pivot_rows.values()
        )


def _targets(rec: Recorder):
    """(module, attribute, wrapper factory) for every traced boundary."""

    def after_h0(result, args):
        rec.bump("cohomology.h0_pairs", result.dim_c1)

    def after_bfs(result, args):
        rec.bump("transitions.states_visited", len(result.configurations))
        rec.bump("transitions.discovery_edges", len(result.discovery))

    def span(name, after=None):
        return lambda fn: rec.timed(name, fn, after)

    def count(name):
        return lambda fn: rec.counted(name, fn)

    return [
        ("linalg", "RowReducer.add", span("linalg.add", rec.note_reducer)),
        ("linalg", "nullspace_of", span("linalg.nullspace")),
        ("linalg", "rref_basis", span("linalg.rref_basis")),
        ("cohomology", "invariance_kernel", span("cohomology.kernel")),
        ("cohomology", "_kernel_rows",
         lambda fn: rec.counted_items("cohomology.kernel_rows", fn)),
        ("cohomology", "h0_h1_finite", span("cohomology.h0", after_h0)),
        ("transitions", "component_bfs", span("transitions.bfs", after_bfs)),
        ("transitions", "neighbors", span("transitions.neighbors")),
        ("transitions", "Transition.__post_init__",
         count("transitions.transitions_built")),
        ("transitions", "transition_from_document", span("transitions.replay")),
        ("transitions", "is_invariant", span("transitions.is_invariant")),
        ("uniform", "Configuration.__post_init__", count("uniform.configs_built")),
        ("uniform", "difference", span("uniform.difference")),
        ("uniform", "evaluate", span("uniform.evaluate")),
        ("sitegraph", "SiteGraph.require_vertex",
         count("sitegraph.require_vertex_calls")),
        ("interaction", "consv_basis", span("interaction.consv")),
        ("interaction", "is_exchangeable", count("interaction.is_exchangeable_calls")),
        ("interaction", "pair_exchange_path", span("interaction.exchange_path")),
        ("localfn", "expand", span("localfn.expand")),
        ("localfn", "assemble", span("localfn.assemble")),
        ("localfn", "ExactSupportFunction.__post_init__", count("localfn.esf_built")),
        ("caps", "current", count("caps.current_calls")),
        ("cli", "_emit", span("cli.emit")),
    ]


def install(rec: Recorder, package: str = "latticecalc") -> None:
    """Wrap every target of ``_targets`` in the already imported package.

    A target the program no longer has is listed in ``rec.missing`` and its
    metrics read zero.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    for module_name, attr, make in _targets(rec):
        module = sys.modules.get(f"{package}.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            rec.missing.append(f"{module_name}.{attr}")
            continue
        wrapper = make(original)
        if owner_name:
            setattr(owner, method, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def summarize(spans) -> dict[str, dict]:
    """Calls, total time and self time per span name.

    Total time counts only the outermost span of a name, so recursion is
    not counted twice; self time subtracts the direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child[i]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            agg["total_s"] += end - start
    return out


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

UNITS = {
    "linalg.add_calls": "count",
    "linalg.rows_kept": "count",
    "linalg.keep_ratio": "ratio",
    "linalg.add_s": "s",
    "linalg.fill_nnz": "count",
    "linalg.nullspace_s": "s",
    "linalg.rref_basis_s": "s",
    "cohomology.kernel_s": "s",
    "cohomology.kernel_self_s": "s",
    "cohomology.kernel_rows": "count",
    "cohomology.h0_s": "s",
    "cohomology.h0_self_s": "s",
    "cohomology.h0_pairs": "count",
    "transitions.bfs_s": "s",
    "transitions.states_visited": "count",
    "transitions.us_per_state": "us",
    "transitions.neighbors_calls": "count",
    "transitions.neighbors_s": "s",
    "transitions.transitions_built": "count",
    "transitions.discovery_ratio": "ratio",
    "transitions.replay_s": "s",
    "transitions.is_invariant_s": "s",
    "uniform.configs_built": "count",
    "uniform.difference_calls": "count",
    "uniform.difference_s": "s",
    "uniform.evaluate_s": "s",
    "sitegraph.require_vertex_calls": "count",
    "interaction.consv_s": "s",
    "interaction.is_exchangeable_calls": "count",
    "interaction.exchange_path_s": "s",
    "localfn.expand_s": "s",
    "localfn.assemble_s": "s",
    "localfn.esf_built": "count",
    "caps.current_calls": "count",
    "cli.import_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.main_s": "s",
    "cli.emit_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(ops: list[dict]) -> dict[str, float]:
    """Layer metrics of one traced pass from its ops' trace records.

    Each record holds ``spans`` (a ``summarize`` result), ``counts``,
    ``import_s``, ``tracer_s``, ``wall_s`` and ``report_bytes``.  Times and
    counts are summed over the pass; the two start-up figures are medians
    over its ops.  ``trace.overhead_frac`` is left to the caller.
    """
    def total(name):
        return sum(op["spans"].get(name, {}).get("total_s", 0.0) for op in ops)

    def own(name):
        return sum(op["spans"].get(name, {}).get("self_s", 0.0) for op in ops)

    def calls(name):
        return sum(op["spans"].get(name, {}).get("calls", 0) for op in ops)

    def count(name):
        return sum(op["counts"].get(name, 0) for op in ops)

    return {
        "linalg.add_calls": calls("linalg.add"),
        "linalg.rows_kept": count("linalg.rows_kept"),
        "linalg.keep_ratio": _ratio(count("linalg.rows_kept"), calls("linalg.add")),
        "linalg.add_s": total("linalg.add"),
        "linalg.fill_nnz": count("linalg.fill_nnz"),
        "linalg.nullspace_s": total("linalg.nullspace"),
        "linalg.rref_basis_s": total("linalg.rref_basis"),
        "cohomology.kernel_s": total("cohomology.kernel"),
        "cohomology.kernel_self_s": own("cohomology.kernel"),
        "cohomology.kernel_rows": count("cohomology.kernel_rows"),
        "cohomology.h0_s": total("cohomology.h0"),
        "cohomology.h0_self_s": own("cohomology.h0"),
        "cohomology.h0_pairs": count("cohomology.h0_pairs"),
        "transitions.bfs_s": total("transitions.bfs"),
        "transitions.states_visited": count("transitions.states_visited"),
        "transitions.us_per_state": 1e6 * _ratio(
            total("transitions.bfs"), count("transitions.states_visited")),
        "transitions.neighbors_calls": calls("transitions.neighbors"),
        "transitions.neighbors_s": total("transitions.neighbors"),
        "transitions.transitions_built": count("transitions.transitions_built"),
        "transitions.discovery_ratio": _ratio(
            count("transitions.discovery_edges"),
            count("transitions.transitions_built")),
        "transitions.replay_s": total("transitions.replay"),
        "transitions.is_invariant_s": total("transitions.is_invariant"),
        "uniform.configs_built": count("uniform.configs_built"),
        "uniform.difference_calls": calls("uniform.difference"),
        "uniform.difference_s": total("uniform.difference"),
        "uniform.evaluate_s": total("uniform.evaluate"),
        "sitegraph.require_vertex_calls": count("sitegraph.require_vertex_calls"),
        "interaction.consv_s": total("interaction.consv"),
        "interaction.is_exchangeable_calls":
            count("interaction.is_exchangeable_calls"),
        "interaction.exchange_path_s": total("interaction.exchange_path"),
        "localfn.expand_s": total("localfn.expand"),
        "localfn.assemble_s": total("localfn.assemble"),
        "localfn.esf_built": count("localfn.esf_built"),
        "caps.current_calls": count("caps.current_calls"),
        "cli.import_ms": 1e3 * statistics.median(op["import_s"] for op in ops),
        "cli.startup_ms": 1e3 * statistics.median(
            op["wall_s"] - op["spans"].get("cli.main", {}).get("total_s", 0.0)
            - op["tracer_s"] for op in ops),
        "cli.main_s": total("cli.main"),
        "cli.emit_s": total("cli.emit"),
        "cli.report_bytes": sum(op["report_bytes"] for op in ops),
    }
