"""Exception hierarchy shared across the package."""


class SparseRidgeError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(SparseRidgeError, ValueError):
    """A caller-supplied argument violates a precondition."""


class BudgetExceededError(InvalidArgumentError):
    """A support set is larger than the sparsity budget k."""


class EnumerationCapError(SparseRidgeError):
    """Subset enumeration would exceed the configured cap."""


class NumericalError(SparseRidgeError):
    """A numerical guard tripped (ill-conditioning, domain violation)."""


class ConvergenceError(NumericalError):
    """An iterative solver stopped before meeting its stopping rule."""


class NumericalDomainError(NumericalError):
    """A closed-form expression left its valid domain (e.g. negative
    discriminant under a square root); usually means an input bound was
    too optimistic."""


class InfeasibleLevelError(InvalidArgumentError):
    """The requested objective level is below the attainable minimum."""


class DegenerateHatError(NumericalError):
    """A hat-matrix diagonal entry is too close to 1 for GCV scoring."""
