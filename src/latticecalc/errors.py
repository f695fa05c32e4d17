"""Error taxonomy.  Every failure carries a machine-readable ``code``.

``exit_status`` is the process status the command line uses for the error:
1 for malformed input documents, 2 for domain violations and failed
internal cross-checks.
"""


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


class WindowTooSmallError(LatticeCalcError):
    code = "window-too-small"


class VerificationError(LatticeCalcError):
    """Two independent routes to the same answer disagree."""

    code = "verification-failed"
