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
PI_2 = (1.5707963267948966, 6.123233995736766e-17)
LN2 = (0.6931471805599453, 2.3190468138462996e-17)
SQRT_PI = (1.772453850905516, -7.666586499825799e-17)

_EXP_MAX = 709.0
_EXP_MIN = -745.0


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
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

    def to_float(self):
        out = self.hi + self.lo
        return float(out) if out.ndim == 0 else out

    @property
    def shape(self):
        return self.hi.shape

    def __getitem__(self, idx):
        return DD(self.hi[idx], self.lo[idx])

    def __setitem__(self, idx, value):
        self.hi[idx] = value.hi
        self.lo[idx] = value.lo

    def copy(self):
        return DD(self.hi.copy(), self.lo.copy())

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, DD):
            s1, s2 = _two_sum(self.hi, other.hi)
            t1, t2 = _two_sum(self.lo, other.lo)
            s2 = s2 + t1
            s1, s2 = _quick_two_sum(s1, s2)
            s2 = s2 + t2
            return DD(*_quick_two_sum(s1, s2))
        b = np.asarray(other, dtype=np.float64)
        s1, s2 = _two_sum(self.hi, b)
        s2 = s2 + self.lo
        return DD(*_quick_two_sum(s1, s2))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, DD) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, DD):
            p1, p2 = _two_prod(self.hi, other.hi)
            p2 = p2 + (self.hi * other.lo + self.lo * other.hi)
            return DD(*_quick_two_sum(p1, p2))
        b = np.asarray(other, dtype=np.float64)
        p1, p2 = _two_prod(self.hi, b)
        p2 = p2 + self.lo * b
        return DD(*_quick_two_sum(p1, p2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, DD):
            other = DD(other)
        if np.any(other.hi == 0.0):
            raise EvaluationError("double-double division by zero")
        q1 = self.hi / other.hi
        r = self - other * q1
        q2 = r.hi / other.hi
        r = r - other * q2
        q3 = r.hi / other.hi
        q1, q2 = _quick_two_sum(q1, q2)
        return DD(q1, q2) + q3

    def __rtruediv__(self, other):
        return DD(other) / self


def dd_where(mask, a: DD, b: DD) -> DD:
    return DD(np.where(mask, a.hi, b.hi), np.where(mask, a.lo, b.lo))


def dd_sqrt(a: DD) -> DD:
    """Square root, one double-double Newton step from the binary64 root."""
    hi = a.hi
    if np.any(hi < 0):
        raise EvaluationError("double-double sqrt of negative value")
    zero = hi == 0.0
    safe = np.where(zero, 1.0, hi)
    x0 = np.sqrt(safe)
    x0sq = DD(*_two_prod(x0, x0))
    r = (DD(np.where(zero, 1.0, a.hi), np.where(zero, 0.0, a.lo)) - x0sq) * (0.5 / x0)
    res = DD(x0) + r
    return DD(np.where(zero, 0.0, res.hi), np.where(zero, 0.0, res.lo))


def dd_exp(a: DD) -> DD:
    """Exponential via ln2 reduction, scaled Taylor series and repeated squaring."""
    m = np.floor(a.hi / LN2[0] + 0.5)
    r = (a - DD.from_pair(LN2) * m) * (1.0 / 512.0)
    # expm1 of the tiny reduced argument; |r| <= ln2/1024
    term = r.copy()
    s = r.copy()
    for j in range(2, 11):
        term = term * r / float(j)
        s = s + term
    # unscale: e^{2t}-1 = 2s + s^2, nine times
    for _ in range(9):
        s = s * 2.0 + s * s
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


def _sin_taylor(t: DD) -> DD:
    t2 = t * t
    term = t.copy()
    s = t.copy()
    for j in range(1, 16):
        term = term * t2 / float(-(2 * j) * (2 * j + 1))
        s = s + term
    return s


def _cos_taylor(t: DD) -> DD:
    t2 = t * t
    term = t2 * (-0.5)
    s = term + 1.0
    for j in range(2, 17):
        term = term * t2 / float(-(2 * j) * (2 * j - 1))
        s = s + term
    return s


def dd_sincos(a: DD):
    """(sin a, cos a) with argument reduction modulo 2*pi then pi/2."""
    n = np.floor(a.hi / TWO_PI[0] + 0.5)
    r = a - DD.from_pair(TWO_PI) * n
    q = np.floor(r.hi / PI_2[0] + 0.5)
    t = r - DD.from_pair(PI_2) * q
    st = _sin_taylor(t)
    ct = _cos_taylor(t)
    qm = np.mod(q.astype(np.int64), 4)
    sin_r = dd_where(qm == 0, st, dd_where(qm == 1, ct, dd_where(qm == 2, -st, -ct)))
    cos_r = dd_where(qm == 0, ct, dd_where(qm == 1, -st, dd_where(qm == 2, -ct, st)))
    return sin_r, cos_r


class DDComplex:
    """Complex number with double-double real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: DD, im: DD):
        self.re = re if isinstance(re, DD) else DD(re)
        self.im = im if isinstance(im, DD) else DD(im)

    @classmethod
    def zeros(cls, shape):
        return cls(DD(np.zeros(shape)), DD(np.zeros(shape)))

    @classmethod
    def from_complex(cls, z):
        z = np.asarray(z, dtype=np.complex128)
        return cls(DD(z.real.copy()), DD(z.imag.copy()))

    @property
    def shape(self):
        return self.re.shape

    def __getitem__(self, idx):
        return DDComplex(self.re[idx], self.im[idx])

    def __setitem__(self, idx, value):
        self.re[idx] = value.re
        self.im[idx] = value.im

    def to_complex(self):
        out = (self.re.hi + self.re.lo) + 1j * (self.im.hi + self.im.lo)
        return complex(out) if np.ndim(out) == 0 else out

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

    def abs(self) -> DD:
        return dd_sqrt(self.abs2())

    def __truediv__(self, other):
        if isinstance(other, DDComplex):
            d = other.abs2()
            return DDComplex(
                (self.re * other.re + self.im * other.im) / d,
                (self.im * other.re - self.re * other.im) / d,
            )
        return DDComplex(self.re / other, self.im / other)

    def __rtruediv__(self, other):
        d = self.abs2()
        if isinstance(other, DD) or np.isrealobj(np.asarray(other)):
            return DDComplex(self.re * other / d, -(self.im * other) / d)
        return DDComplex.from_complex(other) / self

    def __repr__(self):
        return f"DDComplex({self.re!r}, {self.im!r})"


def dd_sum(a: DD) -> DD:
    """Accurate reduction of a 1-d double-double array by pairwise folding."""
    hi, lo = a.hi.ravel().copy(), a.lo.ravel().copy()
    n = hi.size
    while n > 1:
        half = (n + 1) // 2
        left = DD(hi[:n - half], lo[:n - half])
        right = DD(hi[half:n], lo[half:n])
        merged = left + right
        hi[: n - half], lo[: n - half] = merged.hi, merged.lo
        n = half
    return DD(hi[0], lo[0])


def ddc_sum(z: DDComplex) -> DDComplex:
    return DDComplex(dd_sum(z.re), dd_sum(z.im))
