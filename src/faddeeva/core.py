"""Faddeeva function w(z) in binary64 via truncated modified trapezoidal rules.

The evaluator uses three closely related quadrature formulas on the upper
half-plane -- a midpoint-rule sum, the same sum with a residue correction,
and a trapezoidal sum with a residue correction -- picking per point the
one whose nodes stay at distance >= h/4 from z, or far out i c/z, which
all three reduce to.  Each satisfies w_N(-conj z) = conj w_N(z), so the
choice reads |Re z| and the formula takes z as it is.  The reflection
w(z) = 2 e^{-z^2} - w(-z) extends the result to the lower half-plane.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, ParameterError

N_MAX = 25
DEFAULT_N = 11

# points per block of the evaluation pass: a block's input, output and
# complex temporaries stay in L2 (chosen from a sweep of block sizes)
_BLOCK = 16384


def step_size(n: int) -> float:
    """Quadrature step sqrt(pi/(N+1)) for order N."""
    return _params(n).h


class BranchTag(enum.Enum):
    """The part of the dispatch a point falls in, in _branch_masks' order: a
    quadrature formula, or FAR, where all three reduce to i c/z."""

    M = "M"      # plain midpoint sum
    MT = "MT"    # trapezoidal sum plus residue correction
    MM = "MM"    # midpoint sum plus residue correction
    FAR = "FAR"  # i c/z, at and above the far-field cut


class EvalParams(NamedTuple):
    """The constants of the rules of order N, built once per order by _params.

    ``mid`` and ``trap`` hold the pairs (node^2, (2h/pi) e^{-node^2}) of the
    midpoint nodes t_k = (k+1/2)h, k = N..0, and the trapezoidal nodes
    tau_k = kh, k = N..1, in the order the node sum takes them; ``c`` is the
    far-field constant (2h/pi) sum_k e^{-t_k^2}.
    """

    n: int
    h: float
    mid: tuple
    trap: tuple
    c: float


def _params(n) -> EvalParams:
    """The constants of order n.  n is checked before the cache lookup, where
    True would find a cached order 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n <= N_MAX:
        raise ParameterError(f"order must be an integer in [0, {N_MAX}], got {n!r}")
    return _order_constants(int(n))


@functools.lru_cache(maxsize=None)
def _order_constants(n: int) -> EvalParams:
    h = math.sqrt(math.pi / (n + 1))
    scale = 2.0 * h / np.pi

    def pairs(nodes):
        weights = scale * np.exp(-nodes * nodes)
        return tuple(zip((nodes * nodes).tolist()[::-1], weights.tolist()[::-1]))

    t = (np.arange(n + 1) + 0.5) * h
    c = scale * math.fsum(np.exp(-t * t).tolist())
    return EvalParams(n, h, pairs(t), pairs(np.arange(1, n + 1) * h), c)


def _as_xy(z):
    z = np.asarray(z, dtype=np.complex128)
    if np.isnan(z).any():
        raise DomainError("NaN component in complex argument")
    return z


def _scalar_out(res, scalar):
    return complex(res) if scalar else res


def _pole_sum(a, b, pairs):
    """Real sums S0 = sum_k e_k/|d_k|^2 and S1 = sum_k e_k a_k/|d_k|^2 over
    the pairs (node_k^2, e_k) in their order, with d_k = z^2 - node_k^2 =
    a_k + iB, a_k = A - node_k^2; sum_k e_k/d_k is then S1 - iB S0.

    Seven float64 passes per node.  Below the far-field cut |d_k|^2 stays
    under about 1e81, and the dispatch keeps z at least h/4 from the
    nodes, so it neither overflows nor underflows.
    """
    b2 = b * b
    s0 = np.zeros_like(a)
    s1 = np.zeros_like(a)
    d = np.empty_like(a)
    s = np.empty_like(a)
    for t2, e in pairs:
        np.subtract(a, t2, out=d)
        np.multiply(d, d, out=s)
        s += b2
        np.divide(e, s, out=s)
        s0 += s
        s *= d
        s1 += s
    return s0, s1


def _times_iz(x, y, b, s0, s1):
    """iz (S1 - iB S0) as a complex array, from _pole_sum's S0 and S1.

    The rules fold their constant 2h/pi into the weights, so it scales the
    sums and x, y come last: a subnormal x or y is not rounded before it
    scales an O(1) factor.
    """
    s0 *= b
    # iz (S1 - iQ) = (xQ - yS1) + i(xS1 + yQ)
    w = np.empty(x.shape, dtype=np.complex128)
    np.multiply(x, s0, out=w.real)
    w.real -= y * s1
    np.multiply(x, s1, out=w.imag)
    w.imag += y * s0
    return w


def _mid_sum_raw(x, p: EvalParams, y, a, b):
    """(2ihz/pi) * sum_k exp(-t_k^2)/(z^2 - t_k^2), accumulated k = N..0, on
    the planes z = x + iy and z^2 = a + ib."""
    return _times_iz(x, y, b, *_pole_sum(a, b, p.mid))


def _trap_sum_raw(x, p: EvalParams, y, a, b):
    """ih/(pi z) + (2ihz/pi) * sum_{k=1}^N exp(-tau_k^2)/(z^2 - tau_k^2)."""
    w = _times_iz(x, y, b, *_pole_sum(a, b, p.trap))
    # ih/(pi z) = (h/pi)(y + ix)/|z|^2
    r = x * x
    r += y * y
    np.divide(p.h / np.pi, r, out=r)
    w.real += y * r
    w.imag += x * r
    return w


def _corrections(x, p: EvalParams, y, a, b, tag: BranchTag):
    """Residue correction 2 e^{-z^2}/(1 +- e^{-2 i pi z / h}) of MM or MT points
    z = x + iy, z^2 = a + ib.

    It is evaluated through q = e^{2 i pi z / h}, which has modulus <= 1
    for Im(z) >= 0, so the exponential never overflows:
    the MM correction is 2 e^{-z^2} q/(1+q), the MT one 2 e^{-z^2} q/(q-1).
    """
    two_pi_over_h = 2.0 * np.pi / p.h
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        ez2 = np.empty(x.shape, dtype=np.complex128)
        np.negative(a, out=ez2.real)
        np.negative(b, out=ez2.imag)
        np.exp(ez2, out=ez2)
        q = np.empty_like(ez2)
        np.multiply(y, -two_pi_over_h, out=q.real)
        np.multiply(x, two_pi_over_h, out=q.imag)
        np.exp(q, out=q)
        # a complex multiply gets a fresh output: with the output aliasing an
        # input, numpy takes another inner loop for length-1 arrays, and the
        # last bit of the product differs
        num = 2.0 * ez2 * q
        if tag is BranchTag.MT:
            q -= 1.0
        else:
            q += 1.0
        num /= q
    return num


#: the residue correction and the reflection's 2 e^{-z^2} are skipped where
#: the binary64 estimate of their exponent is below this (see _add_live)
_LIVE_EXPONENT = -750.0


def _add_live(w, decay, term):
    """w plus ``term(i)``, the term of the points i, except where that is
    exactly 0.

    ``decay`` is a binary64 estimate of D for a term of modulus at most
    2 e^{-D}.  Where it exceeds -_LIVE_EXPONENT the term is below 2 e^-750,
    under half the smallest subnormal: computed, it would be exactly 0 in
    either arithmetic, so those points keep w as it is.  Every other point
    gets the term, also one whose estimate is NaN.
    """
    # boolean: a full group's index array would be alive at the term's peak
    dead = decay > -_LIVE_EXPONENT
    count = np.count_nonzero(dead)
    if not count:
        return w + term(...)
    if count < dead.size:
        live = np.flatnonzero(~dead)
        w[live] = w[live] + term(live)
    return w


def _add_correction(w, a, y, p: EvalParams, tag: BranchTag, correction):
    """The sum w of the formula ``tag`` on points z = x + iy plus its residue
    correction, where ``a`` is Re z^2 = x^2 - y^2 as the rule formed it and
    ``correction(i)`` computes the correction of the points z[i].

    M points get none.  On MM and MT points the correction 2 e^{-z^2} q/(1 +- q)
    is at most e^{y^2 - x^2 - 2 pi y/h} |2/(1 +- q)|.  With that exponent
    below _LIVE_EXPONENT, y < |x| (an MM point with y >= |x| has y < pi/h,
    so its exponent is above -2 pi (N+1) >= -164), and for y < |x| the
    dispatch puts 2 pi x/h within pi/2 of a multiple of 2 pi on MM points
    and of an odd multiple of pi on MT points.  So |1 +- q| >= 1, and
    _add_live skips the correction there.  That also keeps phases
    2 pi |x|/h ~ 1e40, which no binary64 reduction places, away from the
    double-double sine.
    """
    if tag is BranchTag.M:
        return w
    # the exponent is -(a + 2 pi y/h)
    decay = np.multiply(y, 2.0 * np.pi / p.h)
    decay += a
    return _add_live(w, decay, correction)


def _rule(x, y, p: EvalParams, tag: BranchTag):
    """The part ``tag`` of the dispatch on its points x + iy of the closed
    upper half-plane, given as float64 planes x and y.

    Every step is odd or even in x, so w(-x + iy) = conj w(x + iy) bit for
    bit: the sign of x needs no fold."""
    if tag is BranchTag.FAR:
        return _far(x, y, p)
    a = x * x
    a -= y * y
    b = x * y
    b *= 2.0
    raw = _trap_sum_raw if tag is BranchTag.MT else _mid_sum_raw
    w = raw(x, p, y, a, b)
    return _add_correction(
        w, a, y, p, tag, lambda i: _corrections(x[i], p, y[i], a[i], b[i], tag)
    )


#: far-field cut on max(|x|, y) in the upper half-plane.  At and above it every
#: t_k^2 (at most 78.5 for N <= 25) is below 1e-38 |z^2|, under the rounding
#: of z^2 - t_k^2 in binary64 and in double-double, so each rule is i c/z to
#: working precision, with c = (2h/pi) sum_k e^{-t_k^2} (see _far), and its
#: correction is exactly 0.  Below it |z^2 - t_k^2|^2 cannot overflow.
_FAR = 1e20


def _far_scale(x, y):
    """Far-field points as (u, v, e) with x = u 2^e and y = v 2^e exactly and
    max(|u|, v) in [1/2, 1): i c/z is then 2^-e i c/(u + iv), with no square
    that can overflow.  An infinite part, where w is 0, becomes +-1 under an
    exponent past the binary64 range, which scales any result to 0."""
    _, e = np.frexp(np.maximum(np.abs(x), y))
    e[np.isinf(x) | np.isinf(y)] = 1100
    return np.clip(np.ldexp(x, -e), -1.0, 1.0), np.minimum(np.ldexp(y, -e), 1.0), e


def _far(x, y, p: EvalParams):
    """w_N at the FAR points of the upper half-plane: i c/z.

    The M rule (y >= |x|) and the MM rule (y < |x|, where |x|/h is an
    integer or NaN, outside the trapezoidal window) both reduce there to
    i c/z with c = (2h/pi) sum_{k=0}^N e^{-t_k^2}.
    """
    u, v, e = _far_scale(x, y)
    s = p.c / (u * u + v * v)
    w = np.empty(x.shape, dtype=np.complex128)
    w.real = np.ldexp(s * v, -e)
    w.imag = np.ldexp(s * u, -e)
    return w


def _branch_masks(x, y, p: EvalParams):
    """The masks of BranchTag's M, MT, MM and FAR at points x + iy, x, y >= 0:
    the partition the dispatch runs, one mask set per point.  MT never meets
    FAR, where y < x puts x/h above 2^53, an integer, or NaN at x = inf."""
    far = np.maximum(x, y) >= _FAR
    m = (y >= np.maximum(x, np.pi / p.h)) & ~far
    with np.errstate(invalid="ignore", over="ignore"):
        xh = x / p.h
        phi = xh - np.floor(xh)
    # y < x already excludes m
    mt = (y < x) & (phi >= 0.25) & (phi <= 0.75)
    mm = ~(m | mt | far)
    return m, mt, mm, far


def select_branch(z, n: int = DEFAULT_N) -> BranchTag:
    """The part of the dispatch of order n that runs at a scalar z of the
    closed upper half-plane; it reads |Re z|, as _upper_block does."""
    p = _params(n)
    z = _as_xy(z)
    if z.ndim != 0:
        raise ParameterError("select_branch takes a scalar argument")
    if z.imag < 0:
        raise DomainError("select_branch requires Im z >= 0")
    masks = _branch_masks(np.abs(z.real), z.imag, p)
    return next(tag for tag, sel in zip(BranchTag, masks) if sel)


def _exp_neg_z2(z):
    """e^{-z^2} as one complex exp, which gives signed infinities where it
    overflows."""
    return np.exp(-(z * z))


class _Arithmetic(NamedTuple):
    """The arithmetic the dispatch and the reflection run in.

    ``empty(size)`` makes the flat output container, ``rule(x, y, p, tag)``
    evaluates the part ``tag`` of the dispatch on its upper half-plane
    points x + iy, and ``exp_neg_z2(z)`` returns e^{-z^2} for complex128
    points z, for the reflection of the lower half-plane.
    """

    empty: Callable
    rule: Callable
    exp_neg_z2: Callable


_BINARY64 = _Arithmetic(functools.partial(np.empty, dtype=np.complex128), _rule, _exp_neg_z2)


def _upper_block(x, y, p: EvalParams, out, arith: _Arithmetic):
    """Write w_N(x + iy) into ``out`` for one block of upper half-plane
    points, given as contiguous float64 planes x and y >= 0.

    The partition is read from |x|; each part takes x with its sign."""
    masks = _branch_masks(np.abs(x), y, p)
    for tag, sel in zip(BranchTag, masks):
        # index arrays gather and scatter several times faster than masks
        idx = np.flatnonzero(sel)
        if idx.size == x.size:
            out[...] = arith.rule(x, y, p, tag)
        elif idx.size:
            out[idx] = arith.rule(x[idx], y[idx], p, tag)


def _reflect(z, w, arith: _Arithmetic):
    """w(z) = 2 e^{-z^2} - w(-z) at lower half-plane points z, from
    w = w_N(-z); the term 2 e^{-z^2} is added only where it is not 0."""

    def twice_exp(j):
        e = arith.exp_neg_z2(z[j])
        # a sum, not 2.0 * e, whose 0 * inf is NaN where e overflows
        return e + e

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        # |e^{-z^2}| = e^{-(x^2 - y^2)}, with x^2 - y^2 formed without a
        # square that overflows
        ax, ay = np.abs(z.real), np.abs(z.imag)
        return _add_live(-w, (ax - ay) * (ax + ay), twice_exp)


def _evaluate(z, p: EvalParams, arith: _Arithmetic = _BINARY64):
    """w_N on validated points, in blocks of _BLOCK points; the flat result.

    Upper half-plane points are evaluated where they are; a lower one z is
    evaluated at -z and reflected.  Only one block's temporaries are alive
    at a time.
    """
    zf = z.reshape(-1)
    out = arith.empty(zf.size)
    for i in range(0, zf.size, _BLOCK):
        zb = zf[i:i + _BLOCK]
        ob = out[i:i + _BLOCK]
        y = zb.imag
        if (y == -np.inf).any():
            # e^{-z^2} there has an infinite modulus and no phase
            raise DomainError("imaginary part -inf in complex argument")
        lower = np.flatnonzero(y < 0)
        # a contiguous copy: the strided view would reach the node sum
        x = zb.real.copy()
        x[lower] = -x[lower]
        _upper_block(x, np.abs(y), p, ob, arith)
        if lower.size:
            ob[lower] = _reflect(zb[lower], ob[lower], arith)
    return out


def w_quadrant1(z, n: int = DEFAULT_N):
    """w_plane on the closed first quadrant only: kept as the function that
    the benchmark's core.dispatch layer traces, until that layer traces
    _upper_block."""
    z = _as_xy(z)
    if np.any(z.real < 0) or np.any(z.imag < 0):
        raise DomainError("w_quadrant1 requires the closed first quadrant")
    return w_plane(z, n)


def w_plane(z, n: int = DEFAULT_N):
    """w_N(z) of order n on the whole complex plane: the dispatch on the
    upper half-plane, and the reflection below it.

    For Im(z) < 0 the true function grows like exp(y^2 - x^2) and the
    result overflows to a signed infinity once that exceeds binary64 range.
    """
    p = _params(n)
    z = _as_xy(z)
    return _scalar_out(_evaluate(z, p).reshape(z.shape), z.ndim == 0)


def _by_parts(re, im):
    """re + i im as a complex array formed by parts: re + 1j * im makes a NaN
    of 0 * inf at an infinite im, and turns re = -0 into +0."""
    z = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


def _times_i(z):
    """iz, formed by parts."""
    return _by_parts(-z.imag, z.real)


def _erfc(z, exp_neg_z2, w):
    """erfc(z) = e^{-z^2} w(iz) at flat points z, in the arithmetic of
    ``exp_neg_z2(z)`` and ``w(z)``.

    For Re z < 0 it is 2 - erfc(-z), so that w is only ever evaluated in
    the upper half-plane, where it is small and needs no reflection.
    """
    neg = z.real < 0
    zr = np.where(neg, -z, z)
    out = exp_neg_z2(zr) * w(_times_i(zr))
    # index arrays gather and scatter several times faster than masks
    neg = np.flatnonzero(neg)
    out[neg] = 2.0 - out[neg]
    return out


def erfc_c(z, n: int = DEFAULT_N):
    """Complementary error function erfc(z) = e^{-z^2} w(iz), by _erfc in
    binary64."""
    z = _as_xy(z)
    zf = z.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        out = _erfc(zf, _exp_neg_z2, lambda v: w_plane(v, n))
    # erfc(iy) = 1 - i erfi(y), where e^{-z^2} w(iz) can be inf * 0, and
    # erfi(+-inf) = +-inf
    axis = np.flatnonzero(zf.real == 0)
    out.real[axis] = 1.0
    y = zf.imag[axis]
    inf = np.isinf(y)
    out.imag[axis[inf]] = -y[inf]
    return _scalar_out(out.reshape(z.shape), z.ndim == 0)


def erf_c(z, n: int = DEFAULT_N):
    """Error function erf(z) = 1 - erfc(z).  On the imaginary axis erf(iy) =
    i erfi(y) has the signed zero Re z as its real part, as erf is odd."""
    z = _as_xy(z)
    res = np.asarray(1.0 - np.asarray(erfc_c(z, n)))
    np.copyto(res.real, z.real, where=z.real == 0)
    return _scalar_out(res, z.ndim == 0)


def erfcx_c(z, n: int = DEFAULT_N):
    """Scaled complementary error function e^{z^2} erfc(z) = w(iz)."""
    return w_plane(_times_i(_as_xy(z)), n)


def dawson_real(x, n: int = DEFAULT_N):
    """Dawson's integral for real x: (sqrt(pi)/2) Im w(x).

    It is odd in x exactly, as w(-x) = conj w(x) bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    out = (math.sqrt(math.pi) / 2.0) * np.asarray(w_plane(_by_parts(x, 0.0), n)).imag
    return float(out) if x.ndim == 0 else out


def voigt_kl(x, y, n: int = DEFAULT_N):
    """Voigt line-shape pair (K, L) = (Re w(x+iy), Im w(x+iy)), y > 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ParameterError("voigt_kl requires y > 0")
    w = np.asarray(w_plane(_by_parts(x, y), n))
    if w.ndim == 0:
        return float(w.real), float(w.imag)
    return w.real, w.imag
