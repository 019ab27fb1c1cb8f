"""Exception types shared across the package."""


class FaddeevaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FaddeevaError, ValueError):
    """Input lies outside the mathematical domain (e.g. NaN components)."""


class ParameterError(FaddeevaError, ValueError):
    """A configuration parameter is out of its admissible range."""


class EvaluationError(FaddeevaError, ArithmeticError):
    """A numerical evaluation broke down (division by zero, non-finite result)."""


class SingularBoundError(FaddeevaError, ValueError):
    """The classical error bound is singular at this argument."""


class ConstructionError(FaddeevaError, RuntimeError):
    """A fitted model failed its construction-time residual check."""
