"""Double-double arithmetic and elementary functions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faddeeva.ddouble import (
    DD,
    DDComplex,
    dd_exp,
    dd_sincos,
    dd_sqrt,
    dd_sum,
)
from faddeeva.errors import EvaluationError

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
