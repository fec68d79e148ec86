"""Exception types shared across the package."""


class BetheCoverError(Exception):
    """Base class for all package errors."""


class StructuralError(BetheCoverError):
    """A factor graph is malformed (dangling edge, axis mismatch, ...)."""


class ValidationError(BetheCoverError):
    """An input violates a documented precondition."""


class CapacityError(BetheCoverError):
    """A computation would exceed a configured size limit."""

    def __init__(self, message, limit=None, requested=None):
        super().__init__(message)
        self.limit = limit
        self.requested = requested


class ParseError(BetheCoverError):
    """A graph document could not be parsed."""

    def __init__(self, message, location=None):
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class LctInapplicableError(BetheCoverError):
    """The loop-calculus transform is undefined for an edge (Z_e ~ 0)."""


class DegenerateParameterError(BetheCoverError):
    """Transform parameters cannot be resolved for an edge."""


class InternalConsistencyError(BetheCoverError):
    """A computed object violates one of its own invariants."""


class DegenerateBeliefError(BetheCoverError):
    """A belief normalizer vanished at the given edge or node."""


class SignedRootError(BetheCoverError):
    """The M-th root of a negative mean was requested."""


class NonConvergenceError(BetheCoverError):
    """Raised by the CLI when the sum-product iteration did not converge."""
