"""Exception types shared across the package."""


class HeatTraceError(Exception):
    """Base class for all domain errors raised by this package."""


class UnsupportedSpaceError(HeatTraceError):
    """The requested space is outside the built-in catalogue."""


class SafetyLimitError(HeatTraceError):
    """A spectral sum would exceed the configured term-count safety bound."""


class IllConditionedFitError(HeatTraceError):
    """Coefficient extraction refused: the fit system is too ill-conditioned."""


class NotPositiveDefiniteError(HeatTraceError):
    """A quadratic form expected to be positive definite is not."""


class DegenerateModelError(HeatTraceError):
    """A Plancherel model has a vanishing leading moment and cannot be normalized."""


class InvariantViolation(HeatTraceError):
    """An internal invariant failed; indicates a bug, not a usage error."""
