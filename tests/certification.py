"""Independent certification of the double-double oracle.

Composite Gauss-Legendre quadrature of the Cauchy integral that defines
w(z) in the upper half-plane, and of the real integral that defines
erfc(x), carried in double-double with panel doubling until two
successive values agree.  It shares no code with the evaluator's
dispatch, so criterion 7 and `tests/test_oracle.py` check `w_oracle`
against it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from faddeeva.ddouble import DD, DDComplex, PI, SQRT_PI, dd_exp, dd_sum, ddc_sum
from faddeeva.errors import ParameterError

#: integration window [-T, T]; the Gaussian tail beyond is < 1e-62
_T_CUT = 12.0


@functools.lru_cache(maxsize=8)
def _gl_rule_dd(order: int):
    """Gauss-Legendre nodes/weights on [-1, 1], refined to double-double."""
    x0, _ = np.polynomial.legendre.leggauss(order)
    x = DD(x0)
    dp = None
    for _ in range(4):
        p_prev = DD(np.ones_like(x0))   # P_0
        p_cur = x                       # P_1; no DD operation writes into x
        for j in range(2, order + 1):
            p_next = (x * p_cur * float(2 * j - 1) - p_prev * float(j - 1)) / float(j)
            p_prev, p_cur = p_cur, p_next
        dp = (x * p_cur - p_prev) * float(order) / (x * x - 1.0)
        x = x - p_cur / dp
    w = 2.0 / ((1.0 - x * x) * (dp * dp))
    return x, w


@functools.lru_cache(maxsize=16)
def _panel_nodes(panels: int, order: int, lo: float, hi: float):
    """All panel nodes t over [lo, hi], and their weights times exp(-t^2)."""
    xg, wg = _gl_rule_dd(order)
    width = (hi - lo) / panels
    centers = lo + width * (np.arange(panels) + 0.5)
    half = width / 2.0
    # t = center + (width/2) x over the (panels, order) grid, flattened
    # panel by panel
    t = xg * half + centers[:, None]
    wts = (wg * half) * dd_exp(-(t * t))
    return tuple(DD(v.hi.ravel(), v.lo.ravel()) for v in (t, wts))


def _cauchy_integral(z: complex, panels: int, order: int) -> DDComplex:
    """(i/pi) Integral of exp(-t^2)/(z-t) over [-T, T], composite GL."""
    t, wg = _panel_nodes(panels, order, -_T_CUT, _T_CUT)
    x, y = float(np.real(z)), float(np.imag(z))
    d = DDComplex((-t) + x, DD(np.full(t.hi.shape, y)))
    s = wg / d.abs2()
    terms = DDComplex(s * d.re, -(s * d.im))
    total = ddc_sum(terms)
    # multiply by i/pi
    ip = 1.0 / DD.from_pair(PI)
    return DDComplex(-(total.im * ip), total.re * ip)


def _modulus(v: DDComplex) -> float:
    """|v| in binary64, from the rounded parts hi + lo."""
    return math.hypot(v.re.hi + v.re.lo, v.im.hi + v.im.lo)


#: relative change between panel doublings at which w_quadrature stops
_REL_TOL = 1e-28


def w_quadrature(z):
    """Certification value of w(z), Im(z) > 0, by panel-doubling quadrature."""
    if not (np.imag(z) > 0):
        raise ParameterError("quadrature certification requires Im(z) > 0")
    order = 16
    panels = 512
    prev = _cauchy_integral(z, panels, order)
    while panels < 8192:
        panels *= 2
        cur = _cauchy_integral(z, panels, order)
        if _modulus(cur - prev) <= _REL_TOL * _modulus(cur):
            return cur
        prev = cur
    raise ArithmeticError(f"quadrature did not converge at z={z!r}")


def erfc_quadrature(x: float) -> DD:
    """erfc(x) for real x in [0, T]: (2/sqrt(pi)) Integral_x^T exp(-t^2)."""
    if not (0.0 <= x <= _T_CUT):
        raise ParameterError("erfc_quadrature requires 0 <= x <= 12")
    panels = 256
    prev = None
    while panels <= 2048:
        _, weights = _panel_nodes(panels, 24, x, _T_CUT)
        total = dd_sum(weights) * (2.0 / DD.from_pair(SQRT_PI))
        if prev is not None:
            step = total - prev
            if abs(step.hi + step.lo) <= 1e-29 * max(1e-30, abs(total.hi + total.lo)):
                return total
        prev = total
        panels *= 2
    raise ArithmeticError("erfc quadrature did not converge")
