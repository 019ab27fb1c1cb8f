"""Extended-precision reference values for w(z).

`w_oracle` is `w` itself with only the order and the arithmetic changed:
it runs the binary64 evaluator's own dispatch and reflection code
(`core._evaluate`), at order N=20 and with the three quadrature formulas
and the reflection's e^{-z^2} in double-double. That gives absolute errors
below 3.5e-28 (relative below 9.4e-27 in the upper half-plane). Its
constants are the double-double values of core's one table of order
constants (`EvalParams.dd`), whose leading words binary64 reads.
`erfc_oracle` is core's erfc run on `w_oracle`. The tests certify
`w_oracle` against an independent Gauss-Legendre quadrature of the Cauchy
integral that defines w (`tests/certification.py`).
"""

from __future__ import annotations

import functools

import numpy as np

from . import core
from .core import BranchTag
from .ddouble import DD, DDComplex, _two_prod, dd_exp, dd_sincos

ORACLE_N = 20

def _z2_dd(x, y):
    """(z^2, x^2, y^2) as exact double-double components from binary64 x, y."""
    x2 = DD(*_two_prod(x, x))
    y2 = DD(*_two_prod(y, y))
    xy2 = DD(*_two_prod(2.0 * x, y))
    return DDComplex(x2 - y2, xy2), x2, y2


def _exp_neg_z2_dd(sq):
    """e^{-z^2} = e^{y^2 - x^2} (cos 2xy - i sin 2xy) from _z2_dd's squares.

    A DD product Dekker-splits its factors, which overflows for a magnitude
    above about 1.3e300: such lanes multiply on the magnitude times 2^-64
    and scale the products back, both steps exact.  Other lanes are not
    scaled, so a product that is subnormal there keeps its bits.
    """
    z2, x2, y2 = sq
    mag = dd_exp(y2 - x2)
    s, c = dd_sincos(z2.im)
    k = np.where(mag.hi > 2.0 ** 960, 64, 0)
    mag = DD(np.ldexp(mag.hi, -k), np.ldexp(mag.lo, -k))
    return DDComplex(
        *(DD(np.ldexp(v.hi, k), np.ldexp(v.lo, k)) for v in (mag * c, -(mag * s)))
    )


def _exp_neg_z2_at(z):
    """e^{-z^2} in double-double at complex128 points z."""
    return _exp_neg_z2_dd(_z2_dd(z.real, z.imag))


def _pole_sum_dd(x, y, sq, nodes, two_h_over_pi):
    """(2ihz/pi) sum_k e_k/(z^2 - node_k^2) over the arrays ``nodes`` =
    (node_k^2, e_k, ...), in their order.

    With z^2 = A + iB and a_k = A - node_k^2, each term is
    e_k (a_k - iB)/(a_k^2 + B^2), so the sum is S1 - iB S0 for the
    real sums S0 = sum e_k/|d_k|^2 and S1 = sum e_k a_k/|d_k|^2.
    """
    z2 = sq[0]
    b2 = z2.im * z2.im
    s0 = DD(np.zeros(x.shape))
    s1 = DD(np.zeros(x.shape))
    t2, e = nodes[:2]
    for k in range(t2.hi.size):
        a = z2.re - t2[k]
        s = e[k] / (a * a + b2)
        s0 = s0 + s
        s1 = s1 + s * a
    # prefactor (2ih/pi) z = (2h/pi)(-y + ix)
    return DDComplex(two_h_over_pi * (-y), two_h_over_pi * x) * DDComplex(s1, -(z2.im * s0))


def _mid_sum_dd(x, y, sq, p: core.EvalParams):
    return _pole_sum_dd(x, y, sq, p.dd.mid, p.dd.two_h_over_pi)


def _trap_sum_dd(x, y, sq, p: core.EvalParams):
    h_over_pi = p.dd.h_over_pi
    _, x2, y2 = sq
    # ih/(pi z) = (h/pi) (y + ix)/|z|^2
    r2 = x2 + y2
    extra = DDComplex((h_over_pi * y) / r2, (h_over_pi * x) / r2)
    return _pole_sum_dd(x, y, sq, p.dd.trap, p.dd.two_h_over_pi) + extra


def _corrections_dd(x, y, sq, p: core.EvalParams, tag):
    """Residue correction (MM or MT) via q = exp(2 i pi z / h), |q| <= 1."""
    poh = p.dd.pi_over_h
    mag = dd_exp(poh * (-2.0) * y)
    s, c = dd_sincos(poh * 2.0 * x)
    q = DDComplex(mag * c, mag * s)
    num = _exp_neg_z2_dd(sq) * q * 2.0
    return num / (q - 1.0) if tag is BranchTag.MT else num / (q + 1.0)


def _w_q1_dd(x, y, p: core.EvalParams, tag: BranchTag):
    """The part ``tag`` of the dispatch on its upper half-plane points
    x + iy, double-double throughout."""
    if tag is BranchTag.FAR:
        return _far_dd(x, y, p)
    sq = _z2_dd(x, y)
    w = _trap_sum_dd(x, y, sq, p) if tag is BranchTag.MT else _mid_sum_dd(x, y, sq, p)
    return core._add_correction(
        w, sq[0].re.hi, y, p, tag,
        lambda i: _corrections_dd(x[i], y[i], tuple(v[i] for v in sq), p, tag),
    )


def _far_dd(x, y, p: core.EvalParams) -> DDComplex:
    """i c/z on the FAR points, as core._far, in double-double;
    the squares of the scaled planes cannot overflow the Dekker split."""
    u, v, e = core._far_scale(x, y)
    s = p.dd.c / (DD(*_two_prod(u, u)) + DD(*_two_prod(v, v)))
    return DDComplex(*(DD(np.ldexp(r.hi, -e), np.ldexp(r.lo, -e)) for r in (s * v, s * u)))


#: core's dispatch in double-double, one part per branch; _w_q1_dd is read
#: per call, so that a wrapper bound to its name sees it
_DD = core._Arithmetic(DDComplex.zeros, lambda x, y, p, masks: (
    (sel, functools.partial(_w_q1_dd, p=p, tag=tag)) for tag, sel in zip(BranchTag, masks)
), _exp_neg_z2_at, lambda w: (w.im.hi, w.im.lo))


def w_ref(z, n: int = ORACLE_N) -> DDComplex:
    """w_N(z) over the whole plane: core's dispatch and reflection in
    double-double.

    Array input gives a flat result in the flattened order of z; 0-d input
    gives a DDComplex of 0-d arrays.
    """
    z = core._as_xy(z)
    out = core._evaluate(z, core._params(n), arith=_DD)
    return out[0] if z.ndim == 0 else out


def w_oracle(z) -> DDComplex:
    """Reference w(z): the N=20 dispatch in double-double arithmetic."""
    return w_ref(z, ORACLE_N)


def erfc_oracle(z) -> DDComplex:
    """Reference erfc(z): core's erfc with the double-double e^{-z^2} and
    w_oracle.

    An infinite real part gives the limit, 0 at +inf and 2 at -inf: the
    Dekker split of an infinite square is inf - inf.
    """
    z = core._as_xy(z)
    zf = np.atleast_1d(z).ravel()
    inf = np.isinf(zf.real)
    limit = np.where(zf.real[inf] > 0, 0.0, 2.0)
    out = core._erfc(np.where(inf, 0.0, zf), _exp_neg_z2_at, w_oracle)
    out[inf] = DDComplex(DD(limit), DD(np.zeros_like(limit)))
    if z.ndim == 0:
        return out[0]
    return out
