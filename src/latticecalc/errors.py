"""Error taxonomy, and ``Record``, the base of the package's value classes.

Every failure carries a machine-readable ``code``.  ``exit_status`` is the
process status the command line uses for the error: 1 for malformed input
documents, 2 for domain violations and failed internal cross-checks.

``Record`` lives in this leaf module because every module that defines a
record already imports its errors from here.
"""

from operator import attrgetter


class LatticeCalcError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"
    exit_status = 2


class SchemaError(LatticeCalcError):
    """An input document or literal does not match its schema."""

    code = "schema"
    exit_status = 1


class UnknownStateError(LatticeCalcError):
    code = "unknown-state"


class UnknownVertexError(LatticeCalcError):
    code = "unknown-vertex"


class AsymmetricEdgesError(LatticeCalcError):
    code = "asymmetric"


class NotExchangeableError(LatticeCalcError):
    code = "not-exchangeable"


class CapExceededError(LatticeCalcError):
    code = "cap-exceeded"


class LocalityError(LatticeCalcError):
    code = "locality"


class NormalizationError(LatticeCalcError):
    code = "normalization"


class SupportError(LatticeCalcError):
    code = "support"


class MismatchError(LatticeCalcError):
    """Operands built over different state spaces, graphs or base states."""

    code = "mismatch"


def require_same_system(a, b, what: str) -> None:
    """The one same-system rule: of ``states``, ``graph`` and ``base_index``,
    each that both operands carry (not ``None``) must be equal, or a
    ``MismatchError`` names the first that differs."""
    for field, name in (("states", "state space"), ("graph", "graph"),
                        ("base_index", "base state")):
        x, y = getattr(a, field, None), getattr(b, field, None)
        if x is not None and y is not None and x != y:
            raise MismatchError(f"{what} disagree on the {name}")


class WindowTooSmallError(LatticeCalcError):
    code = "window-too-small"


class VerificationError(LatticeCalcError):
    """Two independent routes to the same answer disagree."""

    code = "verification-failed"


class Record:
    """Immutable value: the fields are its annotations after its parent's, a
    class-level value is a default, and ``__post_init__`` validates.  Records
    of one class with equal fields are equal; ``_unhashed`` is not hashed."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _unhashed: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        # tuple keys keep the per-item identity shortcut of tuple comparison
        cls._key = attrgetter(*cls._fields)
        cls._hash_key = attrgetter(*(n for n in cls._fields if n not in cls._unhashed))

    def __init__(self, *args, **kwargs) -> None:
        names, given = self._fields, len(args) + len(kwargs)
        if args:  # a surplus or repeated argument leaves kwargs short of `given`
            kwargs.update(zip(names, args))
        values = {**self._defaults, **kwargs}
        if (len(kwargs) != given or len(values) != len(names)
                or not all(map(values.__contains__, names))):
            raise TypeError(f"{type(self).__name__}() takes each of the fields {names} once")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; a subclass overrides this."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        cls = self.__class__
        return cls._key(self) == cls._key(other) if other.__class__ is cls else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__class__._hash_key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated like a new record."""
        return type(self)(**dict(zip(self._fields, self._key(self)), **changes))
