"""Integers read from text and handed over as values, exact rationals read
from text, canonical "p/q" or "n" form, and the lists and objects of input
documents."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import SchemaError

_INT_RE = re.compile("-?[0-9]+")
_RATIONAL_RE = re.compile(_INT_RE.pattern + "(/[1-9][0-9]*)?")


def parse_int(text: str, message: str = "") -> int:
    """The integer ``text`` spells as ASCII ``-?[0-9]+``; anything else (a "+",
    whitespace, "_", another digit, too many digits) is ``SchemaError(message)``."""
    if isinstance(text, str) and _INT_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit, which bounds parse time
            pass
    raise SchemaError(message or f"invalid int value: {text!r}")


def require_int(value, message: str, floor: int | None = 0, below: int | None = None,
                fields: tuple = ()) -> int:
    """``value`` if it is an ``int``, never a ``bool``, at least ``floor`` (no
    floor when None) and below ``below`` when given; anything else raises
    ``SchemaError(message.format(*fields))``, ``fields`` defaulting to
    ``(value,)``.  The message is formatted only on failure."""
    if type(value) is int and (floor is None or floor <= value) and (
            below is None or value < below):
        return value
    raise SchemaError(message.format(*(fields or (value,))))


def parse_list(value, message: str, size: int | None = None) -> list:
    """``value`` if it is a JSON list, of ``size`` entries when given; anything
    else (a string, a tuple, an object) raises ``SchemaError(message)``."""
    if type(value) is list and size in (None, len(value)):
        return value
    raise SchemaError(message)


def parse_object(value, what: str, required: tuple = (), optional: tuple | None = None) -> dict:
    """``value`` if it is a JSON object holding every ``required`` key and, when
    ``optional`` is given, no key outside ``required`` and ``optional``; anything
    else raises ``SchemaError`` naming ``what`` and the first key at fault.
    Every input document and embedded object is read here."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be an object")
    for key in required:
        if key not in value:
            raise SchemaError(f"{what} needs {key!r}")
    if optional is not None:
        for key in value:
            if key not in required and key not in optional:
                raise SchemaError(f"{what} has an unknown key {key!r}")
    return value


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: "p/q" with q > 0, or an integer "n"."""
    if not isinstance(text, str):
        raise SchemaError(f"rational literals are strings, got {type(text).__name__}")
    bad = f"not a rational literal: {text!r}"
    if not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(bad)
    return Fraction(*(parse_int(part, bad) for part in text.split("/")))


def format_rational(value: Fraction) -> str:
    """Canonical gcd-reduced form, "p/q" or "n"."""
    return str(Fraction(value))


def ensure_fraction(value) -> Fraction:
    """Coerce int, Fraction or literal string; floats are rejected to keep arithmetic exact."""
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(f"exact rational expected, got {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise SchemaError(f"exact rational expected, got {type(value).__name__}")
