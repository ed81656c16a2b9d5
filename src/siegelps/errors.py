"""Exception types shared across the package."""

from __future__ import annotations


class SiegelError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SiegelError):
    """Shapes or degrees of the operands do not match."""


class DomainError(SiegelError):
    """Input lies outside the mathematical domain of the operation."""


class NumericalError(SiegelError):
    """A computation lost too much precision to be trusted."""


class ConvergenceError(SiegelError):
    """Requested tolerance was not reached within the evaluation budget.

    Carries the best available result in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class AmbiguousThresholdError(SiegelError):
    """Threshold decision could not be certified at the working precision.

    ``diagnostics`` holds the deciding margins, {N: (estimate, spread)} at N0 - 1 and N0.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class ZeroPolynomialError(SiegelError):
    """Weight polynomial vanishes identically on the sampled locus."""


class SamplingError(SiegelError):
    """Monte Carlo acceptance rate too low to produce an estimate."""


class BudgetError(SiegelError):
    """Search space exceeds the configured budget.

    ``feasible_radius`` suggests the largest radius that would fit.
    """

    def __init__(self, message, feasible_radius=None):
        super().__init__(message)
        self.feasible_radius = feasible_radius
