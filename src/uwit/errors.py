"""Exception types shared across the package."""


class UwitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(UwitError, ValueError):
    """Operands have incompatible dimensions."""


class NotHermitianError(UwitError, ValueError):
    """A matrix required to be Hermitian is not (within tolerance)."""


class ConvergenceError(UwitError, RuntimeError):
    """The eigensolver hit its sweep cap before converging."""


class NotPositiveError(UwitError, ValueError):
    """A matrix required to be positive semidefinite is not."""


class InvalidWeightError(UwitError, ValueError):
    """A mixing weight lies outside [0, 1]."""


class InvalidParameterError(UwitError, ValueError):
    """A scalar parameter lies outside its admissible range."""


class DegenerateObservableError(UwitError, ValueError):
    """An operation requiring a nondegenerate spectrum got a degenerate one."""


class RejectionOverflowError(UwitError, RuntimeError):
    """The noise-ball sampler exhausted its rejection budget (radius too large)."""


class NumericalDefectError(UwitError, RuntimeError):
    """A result broke an invariant of exact arithmetic (inclusion chain, bracket)."""


class StateFormatError(UwitError, ValueError):
    """A serialized state file is malformed (bad JSON, keys, or shapes)."""


class StateInvariantError(UwitError, ValueError):
    """A matrix violates the density-matrix invariants.

    ``violations`` lists the failed invariant names, e.g. ``["unit_trace"]``.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("density-matrix invariants violated: " + ", ".join(self.violations))
