"""Run one latticecalc command under the benchmark's tracer.

Usage: python3 perfbench/trace_child.py TRACE_OUT ARG...

Runs ``latticecalc.cli.main(ARG...)`` exactly as the untraced child does,
with the wrappers of ``tracing`` installed, then writes the derived span
summary and counts to TRACE_OUT as one JSON object and exits with main's
status.
"""

import sys
import time

t0 = time.perf_counter()
import latticecalc.cli as cli  # noqa: E402  (the import is what is measured)

t1 = time.perf_counter()

import json  # noqa: E402

import tracing  # noqa: E402

rec = tracing.Recorder()
tracing.install(rec)
main = rec.timed("cli.main", cli.main)
t2 = time.perf_counter()
status = main(sys.argv[2:])
t3 = time.perf_counter()
sys.stdout.flush()
rec.finish()
record = {
    "spans": tracing.summarize(rec.spans),
    "counts": rec.counts,
    "missing": rec.missing,
    "import_s": t1 - t0,
}
record["tracer_s"] = (t2 - t1) + (time.perf_counter() - t3)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(record, fh)
sys.exit(status)
