"""Resource caps for dense tables and searches, and the one rule that checks them.

Defaults are sized for desk-scale experiments.  The environment variable
``LATTICECALC_CAPS`` raises them, e.g.::

    LATTICECALC_CAPS="max_table=4194304,max_bfs=10000000"
"""

from __future__ import annotations

import os
from functools import lru_cache

from .errors import CapExceededError, Record, SchemaError
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


def require(field: str, needed: int, message: str) -> int:
    """The cap ``field``'s limit, counted before the work it bounds; a larger
    ``needed`` raises ``CapExceededError(message.format(needed, limit))``, a
    count past the interpreter's digit limit shown by its size (``2^15000+``)."""
    limit = getattr(current(), field)
    if needed > limit:
        try:
            shown = str(needed)
        except ValueError:  # past the interpreter's digit limit
            shown = f"2^{needed.bit_length() - 1}+"
        raise CapExceededError(message.format(shown, limit))
    return limit


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
