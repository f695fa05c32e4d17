"""Resource caps for dense tables and searches.

Defaults are sized for desk-scale experiments.  The environment variable
``LATTICECALC_CAPS`` raises them, e.g.::

    LATTICECALC_CAPS="max_table=4194304,max_bfs=10000000"
"""

from __future__ import annotations

import os
from functools import lru_cache

from .errors import Record, SchemaError
from .rationals import parse_int

ENV_VAR = "LATTICECALC_CAPS"


class Caps(Record):
    max_support: int = 12          # sites per dense local-function support
    max_table: int = 1 << 20       # dense table entries / enumerated configurations
    max_bfs: int = 10 ** 6         # visited states per breadth-first search
    max_unknowns: int = 20_000     # columns in an invariance-kernel system


_FIELD_NAMES = set(Caps._fields)


def current() -> Caps:
    """Caps taken from the environment when set, defaults otherwise."""
    return _parse(os.environ.get(ENV_VAR, ""))


@lru_cache(maxsize=8)
def _parse(raw: str) -> Caps:
    """Caps for one value of the variable; a bad value raises on every call,
    since ``lru_cache`` stores results only."""
    if not raw:
        return Caps()
    overrides: dict[str, int] = {}
    for item in raw.split(","):
        key, _, value = item.partition("=")  # no "=" leaves value "", not an integer
        key, bad = key.strip(), f"bad {ENV_VAR} entry: {item!r}"
        if key not in _FIELD_NAMES or value.startswith("-"):
            raise SchemaError(bad)
        overrides[key] = parse_int(value, bad)
    return Caps(**overrides)
