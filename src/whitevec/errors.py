"""Typed errors shared by all whitevec modules.

Each error carries a stable ``code`` used as the message prefix in CLI
diagnostics, so callers can match on error kind without parsing prose.
"""


class WhitevecError(Exception):
    """Base class for all whitevec errors."""

    code = "Error"

    def __str__(self) -> str:
        msg = super().__str__()
        return msg if msg else self.code


class EmptyInput(WhitevecError):
    code = "EmptyInput"


class DimensionMismatch(WhitevecError):
    code = "DimensionMismatch"


class NonFinite(WhitevecError):
    code = "NonFinite"


class NoConvergence(WhitevecError):
    code = "NoConvergence"


class RankDeficient(WhitevecError):
    """Requested output dimension exceeds the numerical rank."""

    code = "RankDeficient"

    def __init__(self, requested: int, rank: int):
        super().__init__(
            f"requested k={requested} exceeds numerical rank r={rank}; "
            f"retry with k <= {rank}"
        )
        self.requested = requested
        self.rank = rank


class ZeroVector(WhitevecError):
    code = "ZeroVector"


class DegenerateInput(WhitevecError):
    code = "DegenerateInput"


class InvalidParameter(WhitevecError):
    """A numeric parameter has the wrong type or is outside its valid range."""

    code = "InvalidParameter"


class BadMagic(WhitevecError):
    code = "BadMagic"


class UnsupportedVersion(WhitevecError):
    code = "UnsupportedVersion"


class TruncatedPayload(WhitevecError):
    code = "TruncatedPayload"


class SchemaMismatch(WhitevecError):
    code = "SchemaMismatch"


class ParseError(WhitevecError):
    code = "ParseError"

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
