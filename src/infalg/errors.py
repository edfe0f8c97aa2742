"""Exception types shared across the package, and the default size cap."""

DEFAULT_CAP = 4096


class InfAlgError(Exception):
    """Base class for all library errors."""


class FormatError(InfAlgError):
    """Malformed input: wrong shape, type, range, or duplicate label."""


class StructureError(InfAlgError):
    """A table fails the structural laws it claims to satisfy."""

    def __init__(self, message, report=None, witness=None):
        super().__init__(message)
        self.report = report
        self.witness = witness


class NonCommutingError(InfAlgError):
    """Two equivalences whose relational product is not symmetric.

    The witness is the least pair (u, v) present in one composition order
    but absent from the other.
    """

    def __init__(self, witness, message=None):
        super().__init__(message or f"equivalences do not commute, witness pair {witness}")
        self.witness = witness


class NotDirectedError(InfAlgError):
    """An equivalence family that is not downward directed; witness is an index pair."""

    def __init__(self, witness, message=None):
        super().__init__(message or f"family not downward directed, witness members {witness}")
        self.witness = witness


class CapExceeded(InfAlgError):
    """A construction would exceed the configured size cap."""


class PreconditionError(InfAlgError):
    """An operation was invoked outside its stated precondition."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
