"""Closed-form error-bound constants and curves for the truncated quadrature rules.

The absolute error of the order-N evaluator decays like ``C1 * exp(-pi*N)``
uniformly over the complex plane, and the relative error in the closed upper
half-plane like ``C2 * sqrt(N+1) * exp(-pi*N)``.  This module evaluates those
envelopes together with their building-block constants, plus the classical
(singular) bound that the uniform bounds supersede.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import core
from .errors import ParameterError, SingularBoundError

__all__ = [
    "BoundConstants",
    "constants",
    "abs_bound",
    "rel_bound",
    "component_bounds",
    "hunter_regan_bound",
]


@dataclass(frozen=True)
class BoundConstants:
    """The five closed-form constants appearing in the error envelopes.

    c_a / c_r    -- absolute / relative discretization-error constants
    c_star       -- geometric-series factor bounding the rule error at h(N)
    big_c1       -- absolute-error envelope constant (abs err <= C1 e^{-pi N})
    big_c2       -- relative-error envelope constant
                    (rel err <= C2 sqrt(N+1) e^{-pi N} for Im z >= 0)
    """

    c_a: float
    c_r: float
    c_star: float
    big_c1: float
    big_c2: float


@functools.cache
def constants() -> BoundConstants:
    """Evaluate the five bound constants from their defining formulas."""
    e = math.e
    pi = math.pi
    sqrt_pi = math.sqrt(pi)

    c_a = 2.0 * (2.0 * e + sqrt_pi) / math.sqrt(e * pi)
    c_r = 2.0 * math.sqrt(2.0 * pi) * (1.0 + sqrt_pi) * (2.0 * e + sqrt_pi) / math.sqrt(e)
    c_star = 1.0 / (1.0 - math.exp(-2.0 * pi + math.sqrt(2.0 * pi)))

    big_c1 = c_a * c_star / math.exp(pi) + 10.0 * math.sqrt(2.0) * (1.0 + 2.0 * pi) / (
        math.exp(pi) * pi**2
    )
    big_c2 = (
        2.0 * math.sqrt(2.0) * (1.0 + sqrt_pi) * (2.0 * e + sqrt_pi) * c_star
        / (math.exp(pi) * math.sqrt(e))
        + 10.0 * (1.0 + 2.0 * pi) * (2.0 * pi + math.sqrt(2.0)) / (math.exp(pi) * pi**2)
    )
    return BoundConstants(c_a=c_a, c_r=c_r, c_star=c_star, big_c1=big_c1, big_c2=big_c2)


def abs_bound(n: int) -> float:
    """Uniform absolute-error bound C1 * exp(-pi*n) for the order-n evaluator."""
    core.step_size(n)  # the order check of w(z, n=...)
    return constants().big_c1 * math.exp(-math.pi * n)


def rel_bound(n: int) -> float:
    """Upper-half-plane relative-error bound C2 * sqrt(n+1) * exp(-pi*n)."""
    core.step_size(n)  # the order check of w(z, n=...)
    return constants().big_c2 * math.sqrt(n + 1.0) * math.exp(-math.pi * n)


def component_bounds(n: int) -> tuple[float, float]:
    """Split the absolute bound into (rule-error, truncation-error) parts.

    With the step h(n) = sqrt(pi/(n+1)) both parts share the exponential
    factor exp(-(n+1)*pi); their sum (times e^pi) reassembles abs_bound(n)
    up to the inequalities used in the constants' definitions.
    """
    pi = math.pi
    h = core.step_size(n)
    tau = pi / h  # == sqrt((n+1)*pi), the first dropped node
    c = constants()

    expo = math.exp(-(pi / h) ** 2)  # == exp(-(n+1)*pi) == exp(-tau^2)
    trap = c.c_a * expo / (1.0 - math.exp(-2.0 * pi**2 / h**2 + math.sqrt(2.0) * pi / h))
    trunc = (
        2.0 * math.sqrt(2.0) * (1.0 + 2.0 * h * tau) * (h + 4.0 * tau)
        / (pi * h * tau**2)
        * expo
    )
    return trap, trunc


def hunter_regan_bound(z: complex, h: float) -> float:
    """Classical rule-error bound for the untruncated trapezoidal rule.

    Exposed for documentation and plots only: it blows up as Re(z) -> pi/h,
    which is exactly the defect the uniform bounds above repair.
    """
    z = complex(z)
    x = z.real
    if not (x > 0.0):
        raise ParameterError("bound requires Re(z) > 0")
    if h <= 0.0:
        raise ParameterError("step must be positive")
    pole = math.pi / h
    if x == pole:
        raise SingularBoundError(
            f"classical bound is singular at Re(z) = pi/h = {pole!r}"
        )
    q = math.exp(-math.pi**2 / h**2)
    # |z e^{-z^2}| = |z| e^{y^2 - x^2}
    try:
        growth = math.exp(z.imag * z.imag - x * x)
    except OverflowError:
        growth = math.inf
    num = 2.0 * abs(z) * growth * q
    den = math.sqrt(math.pi) * (1.0 - q * q) * abs(x * x - pole * pole)
    return num / den

