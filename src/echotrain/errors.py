"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Channel / shape mismatch between signals, kernels or masks."""


class ConfigurationError(ValueError):
    """Inconsistent configuration; fields names the parameters the failed check involves."""

    def __init__(self, message, *fields):
        super().__init__(message)
        self.fields = fields


class LengthError(ValueError):
    """Signal length incompatible with a segmentation period."""


class ConstraintError(ValueError):
    """A value violates a physical realizability constraint."""


class UndefinedMetricError(ValueError):
    """Metric undefined for the given data (empty mask, zero target variance)."""


class NumericError(ArithmeticError):
    """Non-finite value where a finite one is required."""


class DivergenceError(RuntimeError):
    """Training cost became non-finite; carries the partial log."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log
