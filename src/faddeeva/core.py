"""Faddeeva function w(z) in binary64 via truncated modified trapezoidal rules.

The evaluator uses three closely related quadrature formulas on the upper
half-plane -- a midpoint-rule sum, the same sum with a residue correction,
and a trapezoidal sum with a residue correction -- picking per point the
one whose nodes stay at distance >= h/4 from z, or far out i c/z, which
all three reduce to.  Each satisfies w_N(-conj z) = conj w_N(z), so the
choice reads |Re z| and the formula takes z as it is.  Within h/4 of 0
the midpoint rule with correction is summed by its own Maclaurin series,
and at |z| >= 64 each formula by its own Laurent series.  Each block is
split once into its (branch, path) parts, seven in binary64 and four in
the oracle.  The reflection w(z) = 2 e^{-z^2} - w(-z) extends the result
to the lower half-plane.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .ddouble import DD, PI, _by_parts, dd_exp, dd_sqrt, dd_sum
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


class DDParams(NamedTuple):
    """The constants of order N in double-double, as EvalParams.dd holds
    them: ``mid`` and ``trap`` are the arrays (node^2, e^{-node^2},
    (2h/pi) e^{-node^2}) of the midpoint and the trapezoidal nodes, k = N
    first, and c = (2h/pi) sum_k e^{-t_k^2} is summed in that order."""

    h: DD
    two_h_over_pi: DD
    h_over_pi: DD
    pi_over_h: DD
    mid: tuple
    trap: tuple
    c: DD


class EvalParams(NamedTuple):
    """The constants of the rules of order N, built once per order by _params.

    ``dd`` holds them in double-double; every binary64 field is the leading
    word of its double-double value, the constant correctly rounded.
    ``mid`` and ``trap`` hold the pairs (node^2, (2h/pi) e^{-node^2}) of the
    midpoint nodes t_k = (k+1/2)h, k = N..0, and the trapezoidal nodes
    tau_k = kh, k = N..1, in the order the node sum takes them; ``c`` is the
    far-field constant (2h/pi) sum_k e^{-t_k^2}.
    """

    n: int
    h: float
    h_over_pi: float
    pi_over_h: float
    mid: tuple
    trap: tuple
    c: float
    dd: DDParams


def _params(n) -> EvalParams:
    """The constants of order n.  n is checked before the cache lookup, where
    True would find a cached order 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n <= N_MAX:
        raise ParameterError(f"order must be an integer in [0, {N_MAX}], got {n!r}")
    return _order_constants(int(n))


@functools.lru_cache(maxsize=None)
def _order_constants(n: int) -> EvalParams:
    """The constants of order n in double-double, and their leading words;
    c is summed term by term, k = N first."""
    pi = DD.from_pair(PI)
    h = dd_sqrt(pi / float(n + 1))
    two_h_over_pi = (h * 2.0) / pi

    def nodes(k):
        t = h * k
        t2 = t * t
        e = dd_exp(-t2)
        return t2, e, e * two_h_over_pi

    mid = nodes(np.arange(n, -1, -1) + 0.5)
    trap = nodes(np.arange(n, 0, -1, dtype=np.float64))
    c = mid[1][0]
    for k in range(1, n + 1):
        c = c + mid[1][k]
    dd = DDParams(h, two_h_over_pi, h / pi, dd_sqrt(pi * float(n + 1)), mid, trap, c * two_h_over_pi)
    mid, trap = (tuple(zip(t2.hi.tolist(), w.hi.tolist())) for t2, _, w in (mid, trap))
    return EvalParams(
        n, float(h.hi), float(dd.h_over_pi.hi), float(dd.pi_over_h.hi), mid, trap, float(dd.c.hi), dd
    )


def _as_xy(z):
    z = np.asarray(z, dtype=np.complex128)
    if np.isnan(z).any():
        raise DomainError("NaN component in complex argument")
    return z


def _pointwise(f):
    """f(z, ...) on flat checked points, for any array-like z: the result takes
    z's shape, a Python scalar for 0-d.  _as_xy is read per call, as tracing rebinds it."""

    @functools.wraps(f)
    def pointwise(z, *args, **kwargs):
        z = _as_xy(z)
        res = f(z.reshape(-1), *args, **kwargs).reshape(z.shape)
        return res.item() if z.ndim == 0 else res

    return pointwise


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
    np.divide(p.h_over_pi, r, out=r)
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
    two_pi_over_h = 2.0 * p.pi_over_h
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
    decay = np.multiply(y, 2.0 * p.pi_over_h)
    decay += a
    return _add_live(w, decay, correction)


def _rule_sum(x, y, p: EvalParams, tag: BranchTag):
    """The rule ``tag`` (M, MT or MM) by its node sum and residue correction.

    Every step is odd or even in x, so w(-x + iy) = conj w(x + iy) bit for
    bit: the sign of x needs no fold."""
    a = x * x
    a -= y * y
    b = x * y
    b *= 2.0
    raw = _trap_sum_raw if tag is BranchTag.MT else _mid_sum_raw
    w = raw(x, p, y, a, b)
    return _add_correction(
        w, a, y, p, tag, lambda i: _corrections(x[i], p, y[i], a[i], b[i], tag)
    )


#: the series keep a term while it can reach this fraction of |w| on their
#: points: a small fraction of an ulp of w
_SERIES_TAIL = 2.0 ** -60

#: M, MT and MM points with |z| at or above this take the rules' Laurent
#: series (_laurent)
_LAURENT = 64.0


def _horner(s, c):
    """sum_j c_j s^j at complex points s for real coefficients c_0, c_1, ...,
    by Horner's rule.  Complex products get outputs that alias no input
    (see _corrections)."""
    if len(c) == 1:
        return np.full(s.shape, c[0], dtype=np.complex128)
    acc = s * c[-1]
    acc += c[-2]
    nxt = np.empty_like(s)
    for cj in c[-3::-1]:
        np.multiply(acc, s, out=nxt)
        acc, nxt = nxt, acc
        acc += cj
    return acc


@functools.lru_cache(maxsize=None)
def _maclaurin_coeffs(n: int) -> tuple:
    """The coefficients c_k of the MM rule of order n written as
    1 + v sum_k c_k v^k in v = iz, rounded to binary64.

    The rule is the paper's w_N: its poles at +-t_k, k <= N, cancel between
    the node sum and the correction, so the series converges for
    |z| < t_{N+1} = (N + 3/2)h.  The correction 2 e^{-z^2} q/(1+q) is
    e^{-z^2} (1 + i tan(pi z/h)), so with e_k = (2h/pi) e^{-t_k^2} the rule
    is e^{-z^2} + i[z sum_k e_k/(z^2 - t_k^2) + e^{-z^2} tan(pi z/h)].  Its
    even part e^{-z^2} - 1 = e^{v^2} - 1 gives c_{2m+1} = 1/(m+1)!.  Its
    odd part is iz sum_m f_m z^{2m}, which gives c_{2m} = (-1)^m f_m, with

        f_m = -sum_k e_k/t_k^{2m+2}
              + sum_{j<=m} ((-1)^{m-j}/(m-j)!) T_j (pi/h)^{2j+1}

    for tan u = sum_j T_j u^{2j+1}.  Both sums grow like (2/h)^{2m} and
    cancel to about 1/Gamma(m + 3/2), so they are formed in double-double,
    from EvalParams.dd and the T_j as exact rationals (from
    tan' = 1 + tan^2).  Each part keeps its terms while they can reach
    _SERIES_TAIL on the disk |z| < h/4, where |w| > 0.6 at every order;
    from there on each term is more than 30 times smaller than the one
    before it.
    """
    from fractions import Fraction  # here: a fresh start need not import it

    def dd_array(values):
        return DD(np.array([v.hi for v in values]), np.array([v.lo for v in values]))

    def dd_rational(q):
        hi = float(q)
        return DD(hi, float(q - Fraction(hi)))

    p = _params(n)
    r = p.h / 4.0
    even = []  # c_{2m+1}
    while r ** (2 * len(even) + 2) / math.factorial(len(even) + 1) >= _SERIES_TAIL:
        even.append(1.0 / math.factorial(len(even) + 1))

    pi_over_h = p.dd.pi_over_h
    t2, _, e = p.dd.mid
    pi2 = pi_over_h * pi_over_h
    tan = [Fraction(0), Fraction(1)]  # tan u = sum_k tan[k] u^k
    pi_pows = [pi_over_h]  # (pi/h)^{2j+1}, j = 0..m
    node_pows = t2  # t_k^{2m+2}
    odd = []
    while True:
        m = len(odd)
        while len(tan) < 2 * m + 2:
            k = len(tan) - 1
            tan.append(sum(tan[i] * tan[k - i] for i in range(k + 1)) / (k + 1))
        if m:
            pi_pows.append(pi_pows[-1] * pi2)
        rational = dd_array([
            dd_rational(Fraction((-1) ** (m - j), math.factorial(m - j)) * tan[2 * j + 1])
            for j in range(m + 1)
        ])
        fm = dd_sum(rational * dd_array(pi_pows)) - dd_sum(e / node_pows)
        node_pows = node_pows * t2
        if abs(float(fm.hi)) * r ** (2 * m + 1) < _SERIES_TAIL:
            break
        odd.append(float(fm.hi))
    c = [0.0] * max(2 * len(odd) - 1, 2 * len(even))
    c[1:2 * len(even):2] = even
    for m, fm in enumerate(odd):
        c[2 * m] = -fm if m % 2 else fm
    return tuple(c)


def _maclaurin(x, y, p: EvalParams):
    """The MM rule at points z = x + iy with |z| < h/4, by its Maclaurin
    series 1 + v P(v) in v = iz (_maclaurin_coeffs).

    P runs Horner's rule on v = -y + ix with real coefficients, and v
    multiplies it once, so every step turns into its conjugate under
    z -> -conj z, exactly: w(-x + iy) = conj w(x + iy) bit for bit.  The 1
    comes last, so w(0) = 1 exactly, and at a subnormal real x the last
    product rounds Im w = (2/sqrt(pi)) x once.
    """
    v = np.empty(x.shape, dtype=np.complex128)
    np.negative(y, out=v.real)
    np.copyto(v.imag, x)
    w = np.multiply(v, _horner(v, _maclaurin_coeffs(p.n)))
    w.real += 1.0
    return w


@functools.lru_cache(maxsize=None)
def _laurent_coeffs(n: int, trap: bool) -> tuple:
    """The coefficients c_j = (-1)^j mu_j of the node sum of order n written
    as (i/z) sum_j c_j u^j with u = (i/z)^2, rounded to binary64: the
    midpoint sum's (M and MM), or with ``trap`` the trapezoidal sum's (MT).

    For |z| > t, 1/(z^2 - t^2) = sum_j t^{2j}/z^{2j+2}, so the midpoint sum
    iz sum_k e_k/(z^2 - t_k^2), e_k = (2h/pi) e^{-t_k^2}, is
    (i/z) sum_j mu_j z^{-2j} with the moments mu_j = sum_k e_k t_k^{2j}, and
    z^{-2j} = (-u)^j.  mu_0 is FAR's c, so i c/z is the first term.  The
    trapezoidal sum has the moments of its nodes tau_k = kh, k = 1..N, and
    its mu_0 also takes the h/pi of ih/(pi z).  The moments are summed in
    double-double from EvalParams.dd.  As |w| is about mu_0/|z|
    there, a term is kept while mu_j/_LAURENT^{2j} >= _SERIES_TAIL mu_0;
    each later one is more than 4096/78.5 = 52 times smaller (t_k^2 <= 78.5
    at N <= 25).
    """
    p = _params(n)
    t2, _, e = p.dd.trap if trap else p.dd.mid
    if not t2.hi.size:  # the trapezoidal sum of order 0 is ih/(pi z)
        return (p.h_over_pi,)
    c = []
    while True:
        mu = dd_sum(e)
        if trap and not c:
            mu = mu + p.dd.h_over_pi
        mu = float(mu.hi)
        j = len(c)
        if j and mu < _SERIES_TAIL * c[0] * _LAURENT ** (2 * j):
            return tuple(c)
        c.append(-mu if j % 2 else mu)
        e = e * t2


def _laurent(x, y, p: EvalParams, tag: BranchTag):
    """The rule ``tag`` at points z = x + iy with _LAURENT <= |z| and
    max(|x|, y) < _FAR, by its Laurent series (i/z) S(u), with
    S(u) = sum_j c_j u^j and u = (i/z)^2 (_laurent_coeffs).

    i/z = (y + ix)/(x^2 + y^2) takes two real divisions; below FAR's cut
    x^2 + y^2 < 2e40, so nothing needs scaling.  S runs Horner's rule on u
    with real coefficients, so every step turns into its conjugate under
    x -> -x, exactly.  The residue correction of MM and MT is left out:
    their points have |x| > _LAURENT/sqrt(2) there, where it is below
    2 e^{-min(x^2, 2 pi |x|/h)} <= 2e^{-160}, under an ulp of either part
    of w wherever _add_correction would not skip it.
    """
    c = _laurent_coeffs(p.n, tag is BranchTag.MT)
    r2 = x * x
    r2 += y * y
    v = np.empty(x.shape, dtype=np.complex128)
    np.divide(y, r2, out=v.real)
    np.divide(x, r2, out=v.imag)
    return np.multiply(v, _horner(v * v, c))


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
    m = (y >= np.maximum(x, p.pi_over_h)) & ~far
    with np.errstate(invalid="ignore", over="ignore"):
        xh = x / p.h
        phi = xh - np.floor(xh)
    # y < x already excludes m
    mt = (y < x) & (phi >= 0.25) & (phi <= 0.75)
    mm = ~(m | mt | far)
    return m, mt, mm, far


def _parts(x, y, p: EvalParams, masks):
    """The seven (mask, f) parts of binary64's dispatch at points x + iy of
    the closed upper half-plane, from _branch_masks' masks: the node sums of
    M, MT and MM (_rule_sum), the Maclaurin series of MM points with r < h/4
    (_maclaurin), the Laurent series below FAR's cut at r >= _LAURENT
    (_laurent), one for M and MM, which share the midpoint moments, and one
    for MT, and FAR (_far).  Each point is routed by its own r = |z|, so its
    value does not depend on the other points of the call.  Each mask is
    built once the parts before it leave points unplaced; each f reads its
    function per call, so that a wrapper bound to its name sees it."""
    m, mt, mm, far = masks
    # r^2 overflows only at FAR points, which take no series
    with np.errstate(over="ignore"):
        r2 = x * x
        r2 += y * y
    # FAR points too, which m, mt and mm do not hold
    laurent = r2 >= _LAURENT * _LAURENT
    yield np.greater(m, laurent), functools.partial(_rule_sum, p=p, tag=BranchTag.M)
    yield np.greater(mt, laurent), functools.partial(_rule_sum, p=p, tag=BranchTag.MT)
    near = mm & (r2 < (p.h / 4.0) ** 2)
    yield np.greater(mm, laurent | near), functools.partial(_rule_sum, p=p, tag=BranchTag.MM)
    yield near, functools.partial(_maclaurin, p=p)
    yield np.greater(laurent, mt | far), functools.partial(_laurent, p=p, tag=BranchTag.MM)
    yield laurent & mt, functools.partial(_laurent, p=p, tag=BranchTag.MT)
    yield far, functools.partial(_far, p=p)


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

    ``empty(size)`` makes the flat output container, ``parts(x, y, p,
    masks)`` yields the dispatch's (mask, f) parts at upper half-plane
    points x + iy from _branch_masks' masks, ``exp_neg_z2(z)`` returns
    e^{-z^2} for complex128 points z, for the reflection of the lower
    half-plane, and ``imag_words(w)`` returns the float64 arrays that hold
    Im w, the leading one first.
    """

    empty: Callable
    parts: Callable
    exp_neg_z2: Callable
    imag_words: Callable


_BINARY64 = _Arithmetic(
    functools.partial(np.empty, dtype=np.complex128), _parts, _exp_neg_z2, lambda w: (w.imag,)
)


def _partition(x, y, parts, out):
    """Write into ``out`` each of ``parts``, pairs (mask, f) with disjoint
    masks over the points x + iy, as f on its own points.  A part that
    holds every point is evaluated on x and y themselves, and the parts
    after the one that places the last point are not built."""
    left = x.size
    for sel, f in parts:
        # index arrays gather and scatter several times faster than masks
        idx = np.flatnonzero(sel)
        if idx.size == x.size:
            out[...] = f(x, y)
        elif idx.size:
            out[idx] = f(x[idx], y[idx])
        left -= idx.size
        if not left:
            return


def _upper_block(x, y, p: EvalParams, out, arith: _Arithmetic):
    """Write w_N(x + iy) into ``out`` for one block of upper half-plane
    points, given as contiguous float64 planes x and y >= 0, in one
    partition into its (branch, path) parts.

    The branches are read from |x|; each part takes x with its sign."""
    _partition(x, y, arith.parts(x, y, p, _branch_masks(np.abs(x), y, p)), out)


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
        # w(-conj z) = conj w(z) makes Im w odd in Re z: on Re z = +-0, where
        # w is real, and where it underflows, Im w is the zero with the sign
        # of Re z (above the real axis Im w has that sign).  The sums leave
        # a zero of either sign there.
        words = arith.imag_words(ob)
        zero = words[0] == 0
        if zero.any():
            for word in words:
                np.copysign(0.0, zb.real, out=word, where=zero)
    return out


def w_quadrant1(z, n: int = DEFAULT_N):
    """w_plane on the closed first quadrant only: kept as the function that
    the benchmark's core.dispatch layer traces, until that layer traces
    _upper_block."""
    z = _as_xy(z)
    if np.any(z.real < 0) or np.any(z.imag < 0):
        raise DomainError("w_quadrant1 requires the closed first quadrant")
    return w_plane(z, n)


@_pointwise
def w_plane(z, n: int = DEFAULT_N):
    """w_N(z) of order n on the whole complex plane: the dispatch on the
    upper half-plane, and the reflection below it.

    For Im(z) < 0 the true function grows like exp(y^2 - x^2) and the
    result overflows to a signed infinity once that exceeds binary64 range.
    """
    return _evaluate(z, _params(n))


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


def _erfc_binary64(z, p: EvalParams):
    """erfc(z) = e^{-z^2} w(iz) at flat checked points z, by _erfc in
    binary64."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        out = _erfc(z, _exp_neg_z2, lambda v: _evaluate(v, p))
    # erfc(iy) = 1 - i erfi(y), where e^{-z^2} w(iz) can be inf * 0, and
    # erfi(+-inf) = +-inf
    axis = np.flatnonzero(z.real == 0)
    out.real[axis] = 1.0
    y = z.imag[axis]
    inf = np.isinf(y)
    out.imag[axis[inf]] = -y[inf]
    return out


@_pointwise
def erfc_c(z, n: int = DEFAULT_N):
    """Complementary error function erfc(z) = e^{-z^2} w(iz)."""
    return _erfc_binary64(z, _params(n))


@_pointwise
def erf_c(z, n: int = DEFAULT_N):
    """Error function erf(z) = 1 - erfc(z).  On the imaginary axis erf(iy) =
    i erfi(y) has the signed zero Re z as its real part, as erf is odd."""
    res = 1.0 - _erfc_binary64(z, _params(n))
    np.copyto(res.real, z.real, where=z.real == 0)
    return res


@_pointwise
def erfcx_c(z, n: int = DEFAULT_N):
    """Scaled complementary error function e^{z^2} erfc(z) = w(iz)."""
    return _evaluate(_times_i(z), _params(n))


def dawson_real(x, n: int = DEFAULT_N):
    """Dawson's integral for real x: (sqrt(pi)/2) Im w(x).

    It is odd in x exactly, as w(-x) = conj w(x) bit for bit.
    """
    w = w_plane(_by_parts(np.asarray(x, dtype=np.float64), 0.0), n)
    return (math.sqrt(math.pi) / 2.0) * w.imag


def voigt_kl(x, y, n: int = DEFAULT_N):
    """Voigt line-shape pair (K, L) = (Re w(x+iy), Im w(x+iy)), y > 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ParameterError("voigt_kl requires y > 0")
    w = w_plane(_by_parts(x, y), n)
    return w.real, w.imag
