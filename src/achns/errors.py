"""Exception types shared across the package."""


class AchnsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AchnsError):
    """Shape or spatial-dimension mismatch between operands."""


class DomainError(AchnsError):
    """Input lies outside the mathematical domain of an operation."""


class SolverError(AchnsError):
    """Iterative linear solve failed to reach the requested residual."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class BlowUpError(AchnsError):
    """Non-finite value appeared during time integration."""

    def __init__(self, t, field, msg=None):
        super().__init__(msg or f"non-finite values in '{field}' at t={t:.6g}")
        self.t = t
        self.field = field


class StabilityError(AchnsError):
    """Requested time step exceeds the advertised stability bound."""


class HorizonError(AchnsError):
    """Time argument at or beyond the guaranteed-finite horizon."""


class ConfigError(AchnsError):
    """Configuration text is malformed or violates a validated constraint."""

    def __init__(self, msg, line=None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line
