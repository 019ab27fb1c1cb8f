"""Double-double arithmetic on numpy arrays.

A value is an unevaluated sum hi + lo of two binary64 numbers with
|lo| <= ulp(hi)/2, giving roughly 106 bits (~31 decimal digits) of
precision.  All operations are elementwise and work on scalars and
arrays alike; the building blocks are the classical error-free
transformations (two-sum, Dekker two-product).
"""

from __future__ import annotations

import numpy as np

from .errors import EvaluationError

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant

# (hi, lo) pairs; hi is the correctly rounded binary64 value.
PI = (3.141592653589793, 1.2246467991473532e-16)
TWO_PI = (6.283185307179586, 2.4492935982947064e-16)
PI_16 = (0.19634954084936207, 7.654042494670958e-18)
LN2 = (0.6931471805599453, 2.3190468138462996e-17)
SQRT_PI = (1.772453850905516, -7.666586499825799e-17)
# third parts: 2 pi - TWO_PI and ln 2 - LN2, rounded to binary64
_TWO_PI_3 = -5.989539619436679e-33
_LN2_3 = 5.707708438416212e-34

_EXP_MAX = 709.0
_EXP_MIN = -745.0


def _out(x):
    """x as a ufunc's ``out``: a temporary array is overwritten in place;
    numpy returns results of 0-d operands as scalars, which get a new one."""
    return x if type(x) is np.ndarray else None


# The error-free transformations below, and the DD operators, write into
# their own temporaries (never into an argument): the operations and their
# order are those of the plain expressions in the comments, so the results
# are bit for bit the same, with fewer array allocations.

def _two_sum(a, b):
    s = a + b
    bb = s - a
    # err = (a - (s - bb)) + (b - bb)
    err = s - bb
    err = np.subtract(a, err, out=_out(err))
    bb = np.subtract(b, bb, out=_out(bb))
    err += bb
    return s, err


def _quick_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    # err = b - (s - a)
    err = s - a
    err = np.subtract(b, err, out=_out(err))
    return s, err


def _split(a):
    t = _SPLITTER * a
    # hi = t - (t - a)
    hi = t - a
    hi = np.subtract(t, hi, out=_out(hi))
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    # err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    err = ah * bh
    err -= p
    t = ah * bl
    err += t
    t = np.multiply(al, bh, out=_out(t))
    err += t
    t = np.multiply(al, bl, out=_out(t))
    err += t
    return p, err


class DD:
    """A double-double real number (elementwise over numpy arrays)."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=np.float64)
        if lo is None:
            lo = np.zeros_like(self.hi)
        self.lo = np.asarray(lo, dtype=np.float64)

    @classmethod
    def from_pair(cls, pair):
        return cls(pair[0], pair[1])

    # -- basic structure ------------------------------------------------

    def __getitem__(self, idx):
        return DD(self.hi[idx], self.lo[idx])

    def __setitem__(self, idx, value):
        value = value if isinstance(value, DD) else DD(value)
        self.hi[idx] = value.hi
        self.lo[idx] = value.lo

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, DD):
            s1, s2 = _two_sum(self.hi, other.hi)
            t1, t2 = _two_sum(self.lo, other.lo)
            s2 += t1
            s1, s2 = _quick_two_sum(s1, s2)
            s2 += t2
            return DD(*_quick_two_sum(s1, s2))
        b = np.asarray(other, dtype=np.float64)
        s1, s2 = _two_sum(self.hi, b)
        s2 += self.lo
        return DD(*_quick_two_sum(s1, s2))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, DD) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, DD):
            p1, p2 = _two_prod(self.hi, other.hi)
            t = self.hi * other.lo
            t += self.lo * other.hi
            p2 += t
            return DD(*_quick_two_sum(p1, p2))
        b = np.asarray(other, dtype=np.float64)
        p1, p2 = _two_prod(self.hi, b)
        p2 += self.lo * b
        return DD(*_quick_two_sum(p1, p2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, DD):
            other = DD(other)
        if np.any(other.hi == 0.0):
            raise EvaluationError("double-double division by zero")
        # the binary64 quotient plus one correction from the double-double
        # remainder; its relative error measured below 2^-104
        q1 = self.hi / other.hi
        r = self - other * q1
        return DD(*_quick_two_sum(q1, (r.hi + r.lo) / other.hi))

    def __rtruediv__(self, other):
        return DD(other) / self


def dd_sqrt(a: DD) -> DD:
    """Square root of a > 0, one double-double Newton step from the binary64
    root."""
    if np.any(a.hi < 0):
        raise EvaluationError("double-double sqrt of negative value")
    x0 = np.sqrt(a.hi)
    r = (a - DD(*_two_prod(x0, x0))) * (0.5 / x0)
    return DD(x0) + r


#: 1/j!, j = 0..17
_INV_FACT = [DD(hi, lo) for hi, lo in (
    (1.0, 0.0),
    (1.0, 0.0),
    (0.5, 0.0),
    (0.16666666666666666, 9.25185853854297e-18),
    (0.041666666666666664, 2.3129646346357427e-18),
    (0.008333333333333333, 1.1564823173178714e-19),
    (0.001388888888888889, -5.300543954373577e-20),
    (0.0001984126984126984, 1.7209558293420705e-22),
    (2.48015873015873e-05, 2.1511947866775882e-23),
    (2.7557319223985893e-06, -1.858393274046472e-22),
    (2.755731922398589e-07, 2.3767714622250297e-23),
    (2.505210838544172e-08, -1.448814070935912e-24),
    (2.08767569878681e-09, -1.20734505911326e-25),
    (1.6059043836821613e-10, 1.2585294588752098e-26),
    (1.1470745597729725e-11, 2.0655512752830745e-28),
    (7.647163731819816e-13, 7.03872877733453e-30),
    (4.779477332387385e-14, 4.399205485834081e-31),
    (2.8114572543455206e-15, 1.6508842730861433e-31),
)]

#: sin(k pi/16), k = 1..7
_SIN_K_PI_16 = (
    (0.19509032201612828, -7.991079068461731e-18),
    (0.3826834323650898, -1.0050772696461588e-17),
    (0.5555702330196022, 4.709410940561677e-17),
    (0.7071067811865476, -4.833646656726457e-17),
    (0.8314696123025452, 1.4073856984728024e-18),
    (0.9238795325112867, 1.7645047084336677e-17),
    (0.9807852804032304, 1.8546939997825006e-17),
)

# sin(j pi/16), j = 0..31, as (hi, lo) arrays: the literals above placed by
# the symmetries sin((16 - j) pi/16) = sin(j pi/16) = -sin((16 + j) pi/16),
# which are exact
_quarter = [(0.0, 0.0), *_SIN_K_PI_16, (1.0, 0.0)]
_half = _quarter + _quarter[-2::-1]
_SIN_TABLE = np.array(_half + [(-hi, -lo) for hi, lo in _half[1:-1]]).T.copy()
del _quarter, _half


def _sub_multiple(a: DD, n, c, c3) -> DD:
    """a - n (c[0] + c[1] + c3) for integral n: both products n c[i] are
    exact, so the error is that of the additions, relative to the result."""
    return a - DD(*_two_prod(c[0], n)) - DD(*_two_prod(c[1], n)) - c3 * n


def _round_half_away(v):
    """The integer nearest v, halves away from 0: odd in v, unlike
    floor(v + 0.5), which also rounds v + 0.5 first."""
    return np.copysign(np.floor(np.abs(v) + 0.5), v)


def _horner(x: DD, coeffs) -> DD:
    """sum_i coeffs[i] x^i by Horner's rule, in double-double throughout."""
    p = coeffs[-1]
    for c in coeffs[-2::-1]:
        p = p * x + c
    return p


def dd_exp(a: DD) -> DD:
    """Exponential via ln2 reduction, a Horner Taylor series and repeated squaring.

    a = m ln2 + 512 r with |r| <= ln2/1024, ln2 split in three parts so that
    r is exact to about 1e-32 relative whatever m is.  expm1(r) is r times
    the degree-9 Horner polynomial on the double-double constants 1/j!,
    j = 1..10 (truncation below 1e-39 relative), and nine squarings
    e^{2t} - 1 = s (s + 2) take it to expm1(512 r); the result is
    2^m (1 + s).  The relative error is about 3e-32 for -669 <= a <= 709,
    where both parts of the result are normal; below -669 the low part
    loses bits to underflow, down to binary64 accuracy at -708.  Past 709
    the result is inf, below -745 it is 0.
    """
    m = np.floor(a.hi / LN2[0] + 0.5)
    r = _sub_multiple(a, m, LN2, _LN2_3) * (1.0 / 512.0)
    s = r * _horner(r, _INV_FACT[1:11])
    for _ in range(9):
        s = s * (s + 2.0)
    res = s + 1.0
    # np.ldexp wants int32 exponents; out-of-range lanes are overwritten below
    mi = np.clip(m, -2000, 2000).astype(np.int32)
    with np.errstate(over="ignore", under="ignore"):
        hi = np.ldexp(res.hi, mi)
        lo = np.ldexp(res.lo, mi)
    hi = np.where(a.hi > _EXP_MAX, np.inf, hi)
    lo = np.where(a.hi > _EXP_MAX, 0.0, lo)
    hi = np.where(a.hi < _EXP_MIN, 0.0, hi)
    lo = np.where(a.hi < _EXP_MIN, 0.0, lo)
    return DD(hi, lo)


def dd_sincos(a: DD):
    """(sin a, cos a) from a reduction by 2 pi and pi/16 and a table of sin(j pi/16).

    a = 2 pi n + r with 2 pi split in three parts, the first two products
    exact, so |r| <= pi carries an error near 1e-32 whatever n is; then
    r = j pi/16 + s with |s| <= pi/32.  sin s and cos s are degree-8 Horner
    polynomials in -s^2 on the constants 1/j! (truncation below 2e-34), and
    the angle-addition formulas with sin(j pi/16) and cos(j pi/16) from
    _SIN_TABLE give the result.  The absolute error is about 5e-32 for
    |a| up to 1e16.  Past that, n exceeds 2^53 and the error grows with
    |a| (1e-28 at 1e20); at 1e35 the result is meaningless.

    Both reductions are odd in a, so sin(-a) and cos(-a) are -sin a and
    cos a bit for bit.
    """
    n = _round_half_away(a.hi / TWO_PI[0])
    r = _sub_multiple(a, n, TWO_PI, _TWO_PI_3)
    j = _round_half_away(r.hi / PI_16[0])
    s = r - DD.from_pair(PI_16) * j
    v = -(s * s)
    sin_s = s * _horner(v, _INV_FACT[1::2])
    cos_s = _horner(v, _INV_FACT[0::2])
    # r in [-pi, pi] puts j in [-16, 16]; cos(j pi/16) = sin((j + 8) pi/16)
    i = j.astype(np.intp) % 32
    sin_j = DD(_SIN_TABLE[0][i], _SIN_TABLE[1][i])
    i = (i + 8) % 32
    cos_j = DD(_SIN_TABLE[0][i], _SIN_TABLE[1][i])
    return sin_j * cos_s + cos_j * sin_s, cos_j * cos_s - sin_j * sin_s


def _by_parts(re, im):
    """re + i im as a complex array formed by parts: re + 1j * im makes a NaN
    of 0 * inf at an infinite im, and turns re = -0 into +0."""
    z = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


class DDComplex:
    """Complex number with double-double real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: DD, im: DD):
        self.re = re if isinstance(re, DD) else DD(re)
        self.im = im if isinstance(im, DD) else DD(im)

    real = property(lambda self: self.re)  # numpy's names, for code serving both
    imag = property(lambda self: self.im)
    @classmethod
    def zeros(cls, shape):
        return cls(DD(np.zeros(shape)), DD(np.zeros(shape)))

    def __getitem__(self, idx):
        return DDComplex(self.re[idx], self.im[idx])

    def __setitem__(self, idx, value):
        self.re[idx] = value.re
        self.im[idx] = value.im

    def to_complex(self):
        """hi + lo of each part, formed by parts: a Python complex for 0-d."""
        out = _by_parts(self.re.hi + self.re.lo, self.im.hi + self.im.lo)
        return complex(out) if out.ndim == 0 else out

    def __neg__(self):
        return DDComplex(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, DDComplex):
            return DDComplex(self.re + other.re, self.im + other.im)
        return DDComplex(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DDComplex):
            return DDComplex(self.re - other.re, self.im - other.im)
        return DDComplex(self.re - other, self.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, DDComplex):
            return DDComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return DDComplex(self.re * other, self.im * other)

    __rmul__ = __mul__

    def abs2(self) -> DD:
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other: DDComplex):
        d = other.abs2()
        return DDComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        """A real other (a DD or a float) over this number."""
        d = self.abs2()
        return DDComplex(self.re * other / d, -(self.im * other) / d)

    def __repr__(self):
        return f"DDComplex({self.re!r}, {self.im!r})"


def dd_sum(a: DD) -> DD:
    """Accurate reduction along the last axis by pairwise folding."""
    hi, lo = a.hi.copy(), a.lo.copy()
    n = hi.shape[-1]
    while n > 1:
        half = (n + 1) // 2
        left = DD(hi[..., :n - half], lo[..., :n - half])
        right = DD(hi[..., half:n], lo[..., half:n])
        merged = left + right
        hi[..., :n - half], lo[..., :n - half] = merged.hi, merged.lo
        n = half
    return DD(hi[..., 0], lo[..., 0])


def ddc_sum(z: DDComplex) -> DDComplex:
    return DDComplex(dd_sum(z.re), dd_sum(z.im))
