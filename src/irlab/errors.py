"""Exception types shared across the package."""


class IrlabError(Exception):
    """Base class for all errors raised by this package."""


class PolynomialParseError(IrlabError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RingMismatchError(IrlabError):
    """Operands live over different ambient rings."""


class NotArtinianError(IrlabError):
    """Unbounded monomial enumeration was requested for a positive-dimensional quotient."""


class ResourceBudgetExceeded(IrlabError):
    """A single Groebner run exceeded its S-pair reduction budget, or a term
    degree the engine's packed exponent fields can hold."""


class SearchExhausted(IrlabError):
    """Randomized parameter-element search ran out of retries.

    Carries the degrees that were attempted so failures are auditable.
    """

    def __init__(self, message, attempted_degrees=()):
        super().__init__(message)
        self.attempted_degrees = tuple(attempted_degrees)


class MethodDisagreement(IrlabError):
    """Two independent algorithms for the same quantity returned different values.

    This is always an internal error and callers are expected to abort loudly.
    """


class InternalInvariantError(IrlabError):
    """A result failed an invariant that holds for every correct computation.

    Like MethodDisagreement, always an internal error.
    """


class ZeroModuleError(IrlabError):
    """Numeric invariants of the zero module were requested."""


class PreconditionError(IrlabError):
    """An operation's structural precondition failed (dimension, depth, containment...)."""
