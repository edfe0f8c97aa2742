"""Exception types shared across the package, and the default size cap.

Every library error carries ``report`` (the failing Report, when the error
comes from a law-by-law check, else None) and ``witness`` (the failing
element, pair or map that its message names, else None). A failed Report
becomes an error one way, through ``Report.require``.
"""

DEFAULT_CAP = 4096


class InfAlgError(Exception):
    """Base class for all library errors."""

    def __init__(self, message, report=None, witness=None):
        super().__init__(message)
        self.report = report
        self.witness = witness


class FormatError(InfAlgError):
    """Malformed input: wrong shape, type, range, or duplicate label."""


class StructureError(InfAlgError):
    """A table fails the structural laws it claims to satisfy."""


class NonCommutingError(InfAlgError):
    """Two equivalences whose relational product is not symmetric.

    The witness is the least pair (u, v) present in one composition order
    but absent from the other.
    """

    def __init__(self, witness, message=None):
        super().__init__(message or f"equivalences do not commute, witness pair {witness}",
                         witness=witness)


class NotDirectedError(InfAlgError):
    """An equivalence family that is not downward directed; witness is an index pair."""

    def __init__(self, witness, message=None):
        super().__init__(message or f"family not downward directed, witness members {witness}",
                         witness=witness)


class CapExceeded(InfAlgError):
    """A construction would exceed the configured size cap."""


class PreconditionError(InfAlgError):
    """An operation was invoked outside its stated precondition."""
