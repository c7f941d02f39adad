"""Exception hierarchy for obatalab.

Everything raised on purpose derives from ObataLabError so callers (and the
CLI) can distinguish library failures from genuine bugs.
"""


class ObataLabError(Exception):
    """Base class for all obatalab errors."""


class ParameterDomainError(ObataLabError):
    """A parameter lies outside the mathematical domain of the operation."""


class DegenerateDensityError(ObataLabError):
    """Density vanishes where positivity is required."""


class DisconnectedSupportError(ObataLabError):
    """Density is identically zero on an interior subinterval."""


class NormalizationError(ObataLabError):
    """Mass or norm differs from the declared normalization."""


class UndefinedQuotientError(ObataLabError):
    """Rayleigh quotient of a constant (zero-variance) function."""


class ConditioningError(ObataLabError):
    """A linear system is too ill-conditioned to trust."""


class NonCDInputError(ObataLabError):
    """Input data is inconsistent with the curvature-dimension hypotheses."""


class ConfigError(ObataLabError):
    """Malformed configuration, schema, or input file."""
