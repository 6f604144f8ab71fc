"""Exception types shared across the toolkit."""


class FlagstoneError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(FlagstoneError):
    """A generator or search parameter is outside its documented range."""


class NotAClique(FlagstoneError):
    """A vertex set passed as a clique contains a non-adjacent pair."""


class DimensionMismatch(FlagstoneError):
    """A vector transform was asked for a dimension its input does not have."""


class NotPalindromic(FlagstoneError):
    """The h-vector fails Dehn-Sommerville, so no gamma-vector exists."""


class InvalidComplex(FlagstoneError):
    """A facet list violates the simplicial-complex invariants."""


class InvalidPartition(FlagstoneError):
    """A candidate vertex partition overlaps or misses vertices."""


class PreconditionFailed(FlagstoneError):
    """A checker's stated precondition does not hold for the given input."""


class BudgetExceeded(FlagstoneError):
    """An exhaustive enumeration would exceed the configured size cap."""


class ParseError(FlagstoneError):
    """A corpus file does not conform to its format.

    Carries the bare message and the offending path and 1-based line
    number when known; str() prefixes the message with "path:line: ".
    """

    def __init__(self, message, path=None, line=None):
        self.message = message
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(where + message)
