"""Exception taxonomy shared by all poscomm modules."""


class PoscommError(Exception):
    """Base class for allErrors raised by this package."""


class StripViolationError(PoscommError):
    """Complex argument outside the declared strip of analyticity."""


class UnsupportedVariantError(PoscommError):
    """Operation not available for this function representation."""


class MonotonicityError(PoscommError):
    """Input violates a required monotonicity precondition."""


class TruncationError(PoscommError):
    """Tail mass beyond the computational window exceeds tolerance."""

    def __init__(self, message, deficit=None):
        super().__init__(message)
        self.deficit = deficit


class AccuracyError(PoscommError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class FitQualityError(PoscommError):
    """Least-squares fit residual above threshold (wrong model class)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(PoscommError):
    """Exponential weight outside the moment-finite region."""


class SignConstraintError(PoscommError):
    """Coefficient signs violate a positivity constraint."""


class ContainmentError(PoscommError):
    """Function range escapes the domain of an outer function."""


class PeriodizationError(PoscommError):
    """Function is neither limit-flat nor periodic on the FFT grid."""


class RouteMismatchError(PoscommError):
    """Operation applied to an operator built by an incompatible route."""


class DerivativeRequiredError(PoscommError):
    """A derivative is needed but the representation carries none."""


class ProbeSelectionError(PoscommError):
    """All probe sets are too ill-conditioned for factor recovery."""


class NotApplicableError(PoscommError):
    """An identity's precondition fails: a positive operator for a model
    with mixed signs, [g] != 0 for a g with [g] = 0, or a nonzero error
    for the convergence slope of an averaged quotient that is exact."""


class SectionAbsentError(PoscommError):
    """Requested report section is not present."""


class ConfigError(PoscommError):
    """Experiment configuration is malformed."""


class ConditioningWarning(UserWarning):
    """Atom grid spacing is small relative to the kernel width."""
