"""Faddeeva function w(z) = exp(-z^2) erfc(-iz) and relatives.

The core evaluator uses truncated modified trapezoidal/midpoint quadrature
with a proven exponential error envelope: with the default order N = 11 the
absolute error is below 2e-15 everywhere in the complex plane, and so is the
relative error in the closed upper half-plane.

Quick start::

    >>> from faddeeva import w, erfc, erfcx, dawson, voigt
    >>> w(1 + 1j)          # doctest: +ELLIPSIS
    (0.3047442052...+0.2082189382...j)
"""

from .core import (
    DEFAULT_N,
    N_MAX,
    BranchTag,
    dawson_real as dawson,
    erf_c as erf,
    erfc_c as erfc,
    erfcx_c as erfcx,
    select_branch,
    step_size,
    voigt_kl as voigt,
    w_plane as w,
    w_quadrant1,
)
from .bounds import BoundConstants, abs_bound, constants, rel_bound
from .errors import (
    ConstructionError,
    DomainError,
    EvaluationError,
    FaddeevaError,
    ParameterError,
    PoleProximityError,
    SingularBoundError,
)

__version__ = "1.0.0"

__all__ = [
    "w",
    "erfc",
    "erf",
    "erfcx",
    "dawson",
    "voigt",
    "w_quadrant1",
    "select_branch",
    "step_size",
    "DEFAULT_N",
    "N_MAX",
    "BranchTag",
    "BoundConstants",
    "constants",
    "abs_bound",
    "rel_bound",
    "FaddeevaError",
    "DomainError",
    "ParameterError",
    "PoleProximityError",
    "EvaluationError",
    "SingularBoundError",
    "ConstructionError",
    "__version__",
]
