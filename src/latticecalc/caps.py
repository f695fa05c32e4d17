"""Resource caps for dense tables and searches.

Defaults are sized for desk-scale experiments.  The environment variable
``LATTICECALC_CAPS`` raises them, e.g.::

    LATTICECALC_CAPS="max_table=4194304,max_bfs=10000000"
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import SchemaError

ENV_VAR = "LATTICECALC_CAPS"


@dataclass(frozen=True)
class Caps:
    max_support: int = 12          # sites per dense local-function support
    max_table: int = 1 << 20       # dense table entries / enumerated configurations
    max_bfs: int = 10 ** 6         # visited states per breadth-first search
    max_unknowns: int = 20_000     # columns in an invariance-kernel system


_FIELD_NAMES = {f.name for f in fields(Caps)}


def current() -> Caps:
    """Caps taken from the environment when set, defaults otherwise."""
    return _parse(os.environ.get(ENV_VAR, "").strip())


@lru_cache(maxsize=8)
def _parse(raw: str) -> Caps:
    """Caps for one value of the variable; a bad value raises on every call,
    since ``lru_cache`` stores results only."""
    if not raw:
        return Caps()
    overrides: dict[str, int] = {}
    for item in raw.split(","):
        key, sep, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in _FIELD_NAMES or not value.isdigit():
            raise SchemaError(f"bad {ENV_VAR} entry: {item!r}")
        overrides[key] = int(value)
    return Caps(**overrides)
