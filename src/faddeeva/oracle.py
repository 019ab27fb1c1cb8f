"""Extended-precision reference values for w(z).

`w_oracle` is `w` itself with only the order and the arithmetic changed:
it runs the binary64 evaluator's own dispatch, quadrant fold, conjugation
and reflection code (`core._evaluate`), at order N=20 and with the three
quadrature formulas and the reflection carried out in double-double. That
gives absolute errors below 3.5e-28 (relative below 9.4e-27 in the upper
half-plane). An independent certification route integrates the defining
Cauchy integral of w with composite Gauss-Legendre panels, also in
double-double.
"""

from __future__ import annotations

import functools

import numpy as np

from . import core
from .core import BranchTag
from .ddouble import (
    DD,
    DDComplex,
    PI,
    SQRT_PI,
    _two_prod,
    dd_exp,
    dd_sincos,
    dd_sqrt,
    dd_sum,
    ddc_sum,
)
from .errors import ParameterError

ORACLE_N = 20


@functools.lru_cache(maxsize=8)
def _dd_params(n: int):
    """2h/pi, h/pi, pi/h and the squared nodes t_k^2, tau_k^2 with their
    weights exp(-node^2), all in DD."""
    h = dd_sqrt(DD.from_pair(PI) / float(n + 1))
    pi_over_h = dd_sqrt(DD.from_pair(PI) * float(n + 1))
    t = [(h * (k + 0.5)) for k in range(n + 1)]
    tau = [(h * float(k)) for k in range(1, n + 1)]
    et = [dd_exp(-(tk * tk)) for tk in t]
    etau = [dd_exp(-(tk * tk)) for tk in tau]
    t2 = [tk * tk for tk in t]
    tau2 = [tk * tk for tk in tau]
    two_h_over_pi = (h * 2.0) / DD.from_pair(PI)
    h_over_pi = h / DD.from_pair(PI)
    return two_h_over_pi, h_over_pi, pi_over_h, t2, et, tau2, etau


def _z2_dd(x, y):
    """(z^2, x^2, y^2) as exact double-double components from binary64 x, y."""
    x2 = DD(*_two_prod(x, x))
    y2 = DD(*_two_prod(y, y))
    xy2 = DD(*_two_prod(2.0 * x, y))
    return DDComplex(x2 - y2, xy2), x2, y2


def _exp_neg_z2_dd(sq):
    """e^{-z^2} = e^{y^2 - x^2} (cos 2xy - i sin 2xy) from _z2_dd's squares."""
    z2, x2, y2 = sq
    mag = dd_exp(y2 - x2)
    s, c = dd_sincos(z2.im)
    return DDComplex(mag * c, -(mag * s))


def _pole_sum_dd(x, y, sq, nodes2, weights, two_h_over_pi):
    """(2ihz/pi) sum_k weights_k/(z^2 - nodes2_k), accumulated from the last node."""
    z2 = sq[0]
    acc = DDComplex.zeros(x.shape)
    for k in range(len(nodes2) - 1, -1, -1):
        d = DDComplex(z2.re - nodes2[k], z2.im)
        # weights_k/d = weights_k conj(d)/|d|^2
        s = weights[k] / d.abs2()
        acc = acc + DDComplex(s * d.re, -(s * d.im))
    # prefactor (2ih/pi) z = (2h/pi)(-y + ix)
    return DDComplex(two_h_over_pi * (-y), two_h_over_pi * x) * acc


def _mid_sum_dd(x, y, sq, n):
    c, _, _, t2, et, _, _ = _dd_params(n)
    return _pole_sum_dd(x, y, sq, t2, et, c)


def _trap_sum_dd(x, y, sq, n):
    c, c2, _, _, _, tau2, etau = _dd_params(n)
    _, x2, y2 = sq
    # ih/(pi z) = (h/pi) (y + ix)/|z|^2
    r2 = x2 + y2
    extra = DDComplex((c2 * y) / r2, (c2 * x) / r2)
    return _pole_sum_dd(x, y, sq, tau2, etau, c) + extra


def _corrections_dd(x, y, sq, n, tag):
    """Residue correction (MM or MT) via q = exp(2 i pi z / h), |q| <= 1."""
    _, _, poh, _, _, _, _ = _dd_params(n)
    mag = dd_exp(poh * (-2.0) * y)
    s, c = dd_sincos(poh * 2.0 * x)
    q = DDComplex(mag * c, mag * s)
    num = _exp_neg_z2_dd(sq) * q * 2.0
    return num / (q - 1.0) if tag is BranchTag.MT else num / (q + 1.0)


def _w_q1_dd(zq, p: core.EvalParams, tag: BranchTag):
    """The formula ``tag`` on first-quadrant points zq, double-double throughout."""
    x, y = zq.real, zq.imag
    sq = _z2_dd(x, y)
    if tag is BranchTag.MT:
        return _trap_sum_dd(x, y, sq, p.n) + _corrections_dd(x, y, sq, p.n, tag)
    s = _mid_sum_dd(x, y, sq, p.n)
    return s if tag is BranchTag.M else s + _corrections_dd(x, y, sq, p.n, tag)


def _negate_imag_dd(w: DDComplex, where):
    np.negative(w.im.hi, out=w.im.hi, where=where)
    np.negative(w.im.lo, out=w.im.lo, where=where)


def _reflect_dd(zl, wneg: DDComplex) -> DDComplex:
    """w(z) = 2 e^{-z^2} - w(-z) for Im(z) < 0, given wneg = w(-z)."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return _exp_neg_z2_dd(_z2_dd(zl.real, zl.imag)) * 2.0 - wneg


def w_ref(z, n: int = ORACLE_N) -> DDComplex:
    """w_N(z) over the whole plane: core's dispatch and fold in double-double.

    Array input gives a flat result in the flattened order of z; 0-d input
    gives a DDComplex of 0-d arrays.
    """
    z = core._as_xy(z)
    # built per call: the benchmark's traced run (perfbench/tracing.py)
    # rebinds _w_q1_dd by module attribute, and a tuple made at import would
    # keep the unwrapped function
    dd = core._Arithmetic(DDComplex.zeros, _w_q1_dd, _negate_imag_dd, _reflect_dd)
    out = core._evaluate(z, core.EvalParams(n), plane=True, arith=dd)
    return out[0] if z.ndim == 0 else out


def w_oracle(z) -> DDComplex:
    """Reference w(z): the N=20 dispatch in double-double arithmetic."""
    return w_ref(z, ORACLE_N)


def erfc_oracle(z) -> DDComplex:
    """Reference erfc(z) = e^{-z^2} w(iz) in double-double arithmetic."""
    z = np.asarray(z, dtype=np.complex128)
    zf = np.atleast_1d(z).ravel()
    x, y = zf.real.copy(), zf.imag.copy()
    out = _exp_neg_z2_dd(_z2_dd(x, y)) * w_oracle(-y + 1j * x)
    if z.ndim == 0:
        return out[0]
    return out


# ---------------------------------------------------------------------------
# Independent certification: Gauss-Legendre quadrature of the Cauchy integral
# ---------------------------------------------------------------------------

#: integration window [-T, T]; the Gaussian tail beyond is < 1e-62
_T_CUT = 12.0


@functools.lru_cache(maxsize=8)
def _gl_rule_dd(order: int):
    """Gauss-Legendre nodes/weights on [-1, 1], refined to double-double."""
    x0, _ = np.polynomial.legendre.leggauss(order)
    x = DD(x0.copy())
    dp = None
    for _ in range(4):
        p_prev = DD(np.ones_like(x0))   # P_0
        p_cur = x.copy()                # P_1
        for j in range(2, order + 1):
            p_next = (x * p_cur * float(2 * j - 1) - p_prev * float(j - 1)) / float(j)
            p_prev, p_cur = p_cur, p_next
        dp = (x * p_cur - p_prev) * float(order) / (x * x - 1.0)
        x = x - p_cur / dp
    w = 2.0 / ((1.0 - x * x) * (dp * dp))
    return x, w


@functools.lru_cache(maxsize=16)
def _panel_nodes(panels: int, order: int, lo: float, hi: float):
    """All panel nodes over [lo, hi], their weights, and exp(-t^2) at them."""
    xg, wg = _gl_rule_dd(order)
    width = (hi - lo) / panels
    centers = lo + width * (np.arange(panels) + 0.5)
    # t = center + (width/2) x, elementwise over the (panels*order) grid
    t_hi = np.empty(panels * order)
    t_lo = np.empty(panels * order)
    w_hi = np.empty(panels * order)
    w_lo = np.empty(panels * order)
    half = width / 2.0
    for i, c in enumerate(centers):
        t = xg * half + c
        ww = wg * half
        sl = slice(i * order, (i + 1) * order)
        t_hi[sl], t_lo[sl] = t.hi, t.lo
        w_hi[sl], w_lo[sl] = ww.hi, ww.lo
    t = DD(t_hi, t_lo)
    wts = DD(w_hi, w_lo)
    gauss = dd_exp(-(t * t))
    return t, wts * gauss


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


def w_quadrature(z, rel_tol: float = 1e-28):
    """Certification value of w(z), Im(z) > 0, by panel-doubling quadrature."""
    x, y = float(np.real(z)), float(np.imag(z))
    if not (y > 0):
        raise ParameterError("quadrature certification requires Im(z) > 0")
    order = 16
    panels = 512
    prev = _cauchy_integral(z, panels, order)
    while panels < 8192:
        panels *= 2
        cur = _cauchy_integral(z, panels, order)
        diff = (cur - prev).abs().to_float()
        scale = cur.abs().to_float()
        if diff <= rel_tol * scale:
            return cur
        prev = cur
    raise ArithmeticError(f"quadrature did not converge at z={z!r}")


def erfc_quadrature(x: float) -> DD:
    """erfc(x) for real x in [0, T]: (2/sqrt(pi)) Integral_x^T exp(-t^2)."""
    if not (0.0 <= x <= _T_CUT):
        raise ParameterError("erfc_quadrature requires 0 <= x <= 12")
    xg, wg = _gl_rule_dd(24)
    order = xg.hi.size
    panels = 256
    prev = None
    while panels <= 2048:
        width = (_T_CUT - x) / panels
        half = width / 2.0
        centers = x + width * (np.arange(panels) + 0.5)
        t_hi = np.empty(panels * order)
        t_lo = np.empty(panels * order)
        for i, c in enumerate(centers):
            t = xg * half + c
            sl = slice(i * order, (i + 1) * order)
            t_hi[sl], t_lo[sl] = t.hi, t.lo
        t = DD(t_hi, t_lo)
        wts = DD(np.tile(wg.hi, panels), np.tile(wg.lo, panels))
        acc = dd_sum(dd_exp(-(t * t)) * wts * half)
        total = acc * (2.0 / DD.from_pair(SQRT_PI))
        if prev is not None and abs((total - prev).to_float()) <= 1e-29 * max(
            1e-30, abs(total.to_float())
        ):
            return total
        prev = total
        panels *= 2
    raise ArithmeticError("erfc quadrature did not converge")
