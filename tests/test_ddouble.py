"""Double-double arithmetic and elementary functions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faddeeva import ddouble
from faddeeva.ddouble import (
    DD,
    DDComplex,
    dd_exp,
    dd_sincos,
    dd_sqrt,
    dd_sum,
)
from faddeeva.errors import EvaluationError

mp = pytest.importorskip("mpmath")

EPS_DD = 2.0**-104


def dd_value(x: DD) -> Fraction:
    """Exact rational value of a scalar DD."""
    return Fraction(float(x.hi)) + Fraction(float(x.lo))


def rel_err(x: DD, exact: Fraction) -> float:
    if exact == 0:
        return abs(float(dd_value(x)))
    return abs(float((dd_value(x) - exact) / exact))


class TestArithmetic:
    def test_add_exact_pair(self):
        r = DD(1.0) + DD(2.0**-60)
        assert r.hi == 1.0 and r.lo == 2.0**-60

    def test_square_exact(self):
        x = DD(1.0 + 2.0**-30)
        r = x * x
        # (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60, exactly representable as a pair
        assert dd_value(r) == Fraction(1) + Fraction(1, 2**29) + Fraction(1, 2**60)

    def test_div_one_third(self):
        r = DD(1.0) / DD(3.0)
        # long-division oracle: correctly rounded 106-bit third
        exact = Fraction(1, 3)
        assert rel_err(r, exact) <= EPS_DD

    def test_div_random_operands(self):
        rng = np.random.default_rng(8)
        n = 2000
        hi = rng.uniform(0.5, 2.0, (2, n)) * 10.0 ** rng.integers(-8, 8, (2, n))
        lo = hi * rng.uniform(-1.0, 1.0, (2, n)) * 2.0**-54
        a, b = DD(hi[0]) + DD(lo[0]), DD(hi[1]) + DD(lo[1])
        q = a / b
        for i in range(n):
            exact = dd_value(a[i]) / dd_value(b[i])
            assert rel_err(q[i], exact) <= EPS_DD

    def test_div_by_zero_raises(self):
        with pytest.raises(EvaluationError):
            DD(1.0) / DD(0.0)

    def test_sqrt_two(self):
        r = dd_sqrt(DD(2.0))
        assert abs(float(dd_value(r) ** 2 - 2)) < 4 * EPS_DD

    @given(
        st.floats(min_value=-1e10, max_value=1e10, allow_nan=False),
        st.floats(min_value=-1e10, max_value=1e10, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_normalization_preserved(self, a, b):
        # hi + lo rounds back to hi: the pair does not overlap
        for r in (DD(a) + DD(b), DD(a) - DD(b), DD(a) * DD(b)):
            assert r.hi + r.lo == r.hi
        # keep the quotient well inside range (the two-product split
        # overflows past ~1e292, as in standard double-double libraries)
        if abs(b) >= 1e-10:
            r = DD(a) / DD(b)
            assert r.hi + r.lo == r.hi

    @given(
        st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
        st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_add_mul_match_exact_rational(self, a, b):
        fa, fb = Fraction(a), Fraction(b)
        s = DD(a) + DD(b)
        p = DD(a) * DD(b)
        assert abs(float(dd_value(s) - (fa + fb))) <= abs(a + b) * EPS_DD + 1e-300
        assert abs(float(dd_value(p) - fa * fb)) <= abs(a * b) * EPS_DD + 1e-300

    def test_vectorized_broadcasting(self):
        a = DD(np.arange(4.0))
        r = a * 2.0 + 1.0
        np.testing.assert_array_equal(r.hi, [1.0, 3.0, 5.0, 7.0])


class TestElementary:
    def test_exp_zero_exact(self):
        r = dd_exp(DD(0.0))
        assert r.hi == 1.0 and r.lo == 0.0

    def test_exp_one_30_digits(self):
        # build-time oracle: 60-term Taylor series in exact rationals
        e_exact = sum(Fraction(1, math.factorial(k)) for k in range(60))
        r = dd_exp(DD(1.0))
        assert rel_err(r, e_exact) < 1e-30

    def test_exp_matches_rational_taylor_at_half(self):
        x = Fraction(1, 2)
        exact = sum(x**k / math.factorial(k) for k in range(60))
        assert rel_err(dd_exp(DD(0.5)), exact) < 1e-30

    def test_sin_cos_pythagorean(self):
        rng = np.random.default_rng(42)
        args = rng.uniform(0.0, 10.0, 100)
        s, c = dd_sincos(DD(args))
        one = s * s + c * c
        err = np.abs((one.hi - 1.0) + one.lo)
        assert np.max(err) < 2.0**-100

    def test_sincos_against_scalar_references(self):
        # sin/cos at a few exactly-representable points, references computed
        # from the rational Taylor series of the same binary64 arguments
        for x in (0.5, 1.0, 1.5):
            fx = Fraction(x)
            sin_exact = sum(
                (-1) ** k * fx ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(40)
            )
            cos_exact = sum(
                (-1) ** k * fx ** (2 * k) / math.factorial(2 * k) for k in range(40)
            )
            s, c = dd_sincos(DD(x))
            assert rel_err(s, sin_exact) < 1e-30
            assert rel_err(c, cos_exact) < 1e-30

    def test_exp_c_unit_circle(self):
        # e^{i} = cos 1 + i sin 1 lies on the unit circle: sin^2 + cos^2 = 1
        s, c = dd_sincos(DD(1.0))
        mod2 = DDComplex(c, s).abs2()
        assert abs((mod2.hi - 1.0) + mod2.lo) < 2.0**-98

    def test_exp_range_limits(self):
        assert dd_exp(DD(800.0)).hi == math.inf
        assert dd_exp(DD(-800.0)).hi == 0.0


class TestReductions:
    def test_dd_sum_matches_exact_rational_sum(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(1000)
        s = dd_sum(DD(v))
        exact = sum(Fraction(x) for x in v)
        err = abs(float(dd_value(s) - exact))
        assert err < abs(float(exact)) * 1e-28 + 1e-28

    def test_dd_sum_reduces_last_axis(self):
        rng = np.random.default_rng(8)
        v = DD(rng.standard_normal((3, 1000))) / 3.0  # nonzero lo parts
        s = dd_sum(v)
        assert s.hi.shape == (3,)
        for i in range(3):
            row = dd_sum(DD(v.hi[i], v.lo[i]))
            assert (s.hi[i], s.lo[i]) == (row.hi, row.lo)


@pytest.mark.parametrize("shape", [(), (3,)])
def test_to_complex_by_parts(shape):
    # re + 1j * im would turn Im -0 into +0 and give an infinite Im a NaN
    # real part
    def part(v):
        return DD(np.full(shape, v), np.full(shape, math.copysign(0.0, v)))

    got = [DDComplex(part(0.25), part(-0.0)).to_complex(),
           DDComplex(part(1.0), part(np.inf)).to_complex()]
    if shape:
        got = [v[-1] for v in got]
    else:
        assert all(type(v) is complex for v in got)
    assert got[0] == 0.25 and math.copysign(1.0, got[0].imag) == -1.0
    assert got[1].real == 1.0 and got[1].imag == np.inf


class TestAgainstMpmath:
    """The elementary kernels and their constants against mpmath at 200 bits."""

    @pytest.fixture(autouse=True)
    def _precision(self):
        with mp.workprec(200):
            yield

    @staticmethod
    def mp_value(x: DD, i):
        return mp.mpf(float(x.hi[i])) + mp.mpf(float(x.lo[i]))

    @staticmethod
    def rounded(v):
        """An mpmath value rounded to double-double."""
        hi = float(v)
        return hi, float(v - hi)

    @staticmethod
    def with_lo(x, rng):
        """DD inputs whose low parts are populated, as computed values are."""
        return DD(x) + DD(x * rng.uniform(-1.0, 1.0, x.size) * 2.0**-54)

    def test_exp(self):
        # a >= -669 keeps both parts of e^a normal; below, the low part is
        # subnormal and the result cannot carry 106 bits
        rng = np.random.default_rng(11)
        m = np.arange(-965, 1010, 5.0)
        x = np.concatenate([
            rng.uniform(-669.0, 700.0, 600), rng.uniform(-1.0, 1.0, 100),
            # the reduction edges (m + 1/2) ln 2 and the multiples m ln 2
            (m + 0.5) * math.log(2.0), m * math.log(2.0), [0.0, -669.0, 700.0],
        ])
        x = x[(x >= -669.0) & (x <= 700.0)]
        a = self.with_lo(x, rng)
        e = dd_exp(a)
        for i in range(x.size):
            exact = mp.exp(self.mp_value(a, i))
            assert abs((self.mp_value(e, i) - exact) / exact) <= 1e-30, x[i]

    def test_sincos(self):
        rng = np.random.default_rng(12)
        edges = DD.from_pair(ddouble.PI) * (np.arange(-96, 97) / 32.0)
        near = np.concatenate([edges.hi, edges.hi + 1e-15, edges.hi - 1e-15])
        x = np.concatenate([
            rng.uniform(-1e4, 1e4, 400), rng.uniform(-4.0, 4.0, 200),
            near, -near, [0.0, -0.0, 1e4, -1e4],
        ])
        a = self.with_lo(x, rng)
        s, c = dd_sincos(a)
        for i in range(x.size):
            v = self.mp_value(a, i)
            assert abs(self.mp_value(s, i) - mp.sin(v)) <= 1e-29, x[i]
            assert abs(self.mp_value(c, i) - mp.cos(v)) <= 1e-29, x[i]
        # the table edges themselves, as double-double values
        s, c = dd_sincos(edges)
        for i in range(edges.hi.size):
            v = self.mp_value(edges, i)
            assert abs(self.mp_value(s, i) - mp.sin(v)) <= 1e-29
            assert abs(self.mp_value(c, i) - mp.cos(v)) <= 1e-29
        # odd and even bit for bit, also at the reductions' half-way points
        for b in (a, edges):
            s, c = dd_sincos(b)
            s_neg, c_neg = dd_sincos(-b)
            for u, v in ((s_neg, -s), (c_neg, c)):
                assert np.array_equal(u.hi, v.hi) and np.array_equal(u.lo, v.lo)

    def test_constants_are_rounded_values(self):
        for j, c in enumerate(ddouble._INV_FACT):
            assert (c.hi, c.lo) == self.rounded(1 / mp.factorial(j)), j
        for j in range(32):
            table = (ddouble._SIN_TABLE[0][j], ddouble._SIN_TABLE[1][j])
            assert table == self.rounded(mp.sinpi(mp.mpf(j) / 16)), j
        assert ddouble.PI_16 == self.rounded(mp.pi / 16)
        for pair, third, exact in (
            (ddouble.TWO_PI, ddouble._TWO_PI_3, 2 * mp.pi),
            (ddouble.LN2, ddouble._LN2_3, mp.log(2)),
        ):
            assert pair == self.rounded(exact)
            assert third == float(exact - pair[0] - pair[1])

    def test_scalar_and_array_bits_agree(self):
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.uniform(-700.0, 700.0, 40), [0.0, -0.0, math.pi / 32]])
        a = self.with_lo(x, rng)
        vec = [dd_exp(a), *dd_sincos(a)]
        for i in range(x.size):
            one = DD(a.hi[i], a.lo[i])
            for v, f in zip(vec, [dd_exp(one), *dd_sincos(one)]):
                assert np.shape(f.hi) == ()
                bits = np.float64(f.hi).tobytes() + np.float64(f.lo).tobytes()
                assert bits == v.hi[i].tobytes() + v.lo[i].tobytes(), x[i]
