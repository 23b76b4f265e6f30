"""Exception types shared across the package."""


class FairrankError(Exception):
    """Base class for all package errors."""


class LoopArcError(FairrankError):
    """An arc (x, x) was supplied."""


class DuplicateOrConflictError(FairrankError):
    """A pair was supplied twice or in both directions."""


class MissingPairError(FairrankError):
    """Some unordered vertex pair has no arc."""


class UnknownVertexError(FairrankError):
    """A vertex label outside 1..n was referenced."""


class TournamentSyntaxError(FairrankError):
    """Malformed tournament or ranking text."""


class ResourceLimitError(FairrankError):
    """Requested instance exceeds a configured size cap."""


class DomainMismatchError(FairrankError):
    """Ranking is not defined on exactly the tournament's vertices."""


class NoConvergenceError(FairrankError):
    """Fixed-point iteration exhausted its iteration budget."""

    def __init__(self, iterations: int):
        self.iterations = iterations
        super().__init__(f"no fixed point after {iterations} iterations")


class NotStronglyConnectedError(FairrankError):
    """An operation requiring a strongly connected tournament got a reducible one."""


class VerificationFailedError(FairrankError):
    """A constructed ranking failed its fairness verification."""

    def __init__(self, certificate, message: str = ""):
        self.certificate = certificate
        super().__init__(message or f"verification failed, violating pair {certificate}")


class EmptyClassError(FairrankError):
    """No enumerated ranking satisfied the requested fairness class."""
