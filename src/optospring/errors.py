"""Exception and warning types shared across the toolkit."""


class OptospringError(Exception):
    """Base class for all toolkit errors."""


class ConfigParseError(OptospringError):
    """Raised when a config file cannot be parsed."""


class ValidationError(OptospringError):
    """Raised when a parameter violates a documented invariant.

    The message always names the violated invariant, e.g. ``mass > 0``.
    """

    def __init__(self, invariant, field=None, value=None):
        self.invariant = invariant
        self.field = field
        self.value = value
        detail = f"invariant violated: {invariant}"
        if field is not None:
            detail += f" (field {field!r} = {value!r})"
        super().__init__(detail)


class SingularResponseError(OptospringError):
    """Raised when a transfer-function denominator is effectively zero."""


class NoConvergenceError(OptospringError):
    """Root polishing failed to converge; carries the first and last iterate."""

    def __init__(self, message, trace=()):
        self.trace = list(trace)
        super().__init__(f"{message}; iterates: {self.trace}")


class InstabilityError(OptospringError):
    """Raised when an operation requires a damped (stable) mode."""


class InsufficientDataError(OptospringError):
    """Raised when a time series or fit window holds too few samples."""


class SpectrumBandError(OptospringError):
    """Raised when an integration band falls outside the spectrum grid."""


class FitError(OptospringError):
    """Nonlinear fit failure; carries a residual report."""


class ConsistencyWarning(UserWarning):
    """Non-fatal mismatch between redundant parameters (e.g. finesse vs kappa)."""


class AmbiguousBranchWarning(UserWarning):
    """Closed-loop pole selection found two nearly degenerate candidates."""
