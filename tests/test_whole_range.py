"""w over the whole binary64 upper half-plane, against scipy and mpmath.

In the upper half-plane |w| <= 1, so every input there has a finite value:
signed zeros, subnormals, |z| from 1e-300 to 1e300 (past 1.3e154, where
z^2 overflows, the far field takes over) and an infinite part, where w
is 0.  Each call must return it with no NaN and no numpy RuntimeWarning,
within the proven relative bound plus the 13 digits the Faddeeva Package
(scipy.special.wofz) is written to deliver.  mpmath checks a smaller
sample, with |z| up to 1e6, including subnormal points on the real axis,
where Im w and dawson are compared part by part.

Below the real axis w(z) = 2 e^{-z^2} - w(-z).  Where |y| <= |x|/2 the
value is finite and away from the zeros of w, which lie near |y| = |x|, so
it is checked in the same way; where x^2 - y^2 > 750 the term 2 e^{-z^2}
is below half the smallest subnormal, and w(z) is exactly -w(-z).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import faddeeva

sp = pytest.importorskip("scipy.special")
mp = pytest.importorskip("mpmath")

TOL = faddeeva.rel_bound(faddeeva.DEFAULT_N) + 1e-13
#: spacing of the subnormals: a subnormal part is checked to within one
SUBNORMAL_ULP = 5e-324


def polar(max_log10):
    """Points r e^{i theta}, theta in [0, pi], log10 r uniform up to max_log10."""
    return st.builds(
        lambda u, theta: complex(10.0**u * math.cos(theta), 10.0**u * math.sin(theta)),
        st.floats(-300.0, max_log10),
        st.floats(0.0, math.pi),
    )


#: signed zeros and subnormals come from the plain float strategies
CARTESIAN = st.builds(
    complex,
    st.floats(-1e300, 1e300),
    st.floats(0.0, 1e300) | st.just(-0.0),
)
INFINITE_REAL = st.builds(complex, st.sampled_from([math.inf, -math.inf]), st.floats(0.0, 1e300))
UPPER = polar(300.0) | CARTESIAN | INFINITE_REAL


#: below the real axis with |y| <= |x|/2, and signed zeros on it
LOWER = (
    st.builds(
        lambda u, theta, sign: complex(sign * 10.0**u * math.cos(theta), -(10.0**u) * math.sin(theta)),
        st.floats(-300.0, 300.0),
        st.floats(0.0, math.atan(0.5)),
        st.sampled_from([1.0, -1.0]),
    )
    | st.builds(complex, st.floats(-1e300, 1e300), st.just(-0.0))
)


def w_quiet(z):
    """w(z), failing on any numpy RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return faddeeva.w(z)


@settings(max_examples=300, deadline=None)
@given(st.lists(UPPER, min_size=1, max_size=16))
@example([2e154 + 1e150j])
@example([1e100 + 1e90j, math.inf + 1.0j, -math.inf + 0.0j, 1e-300 + 1e300j])
@example([1.7e308 + 1j, complex(1.0, math.inf), complex(-math.inf, math.inf)])
def test_w_finite_and_close_to_scipy(points):
    z = np.array(points)
    got = w_quiet(z)
    assert not np.any(np.isnan(got.real) | np.isnan(got.imag))
    want = sp.wofz(z)
    bad = np.abs(got - want) > TOL * np.abs(want)
    assert not bad.any(), list(zip(z[bad], got[bad], want[bad]))


@settings(max_examples=300, deadline=None)
@given(st.lists(LOWER, min_size=1, max_size=16))
@example([1e200 - 1e199j, -1e200 - 1e199j, 1e300 - 5e299j])
@example([-30.0 - 1.0j, 1.5 - 0.7j, 1.0 - 5e-324j, complex(-0.0, -0.0)])
@example([-1.7e308 - 1j])
def test_w_lower_half_plane(points):
    z = np.array(points)
    got = w_quiet(z)
    assert not np.any(np.isnan(got.real) | np.isnan(got.imag))
    want = sp.wofz(z)
    bad = np.abs(got - want) > TOL * np.abs(want)
    assert not bad.any(), list(zip(z[bad], got[bad], want[bad]))
    x, y = np.abs(z.real), np.abs(z.imag)
    with np.errstate(over="ignore"):
        far = (z.imag < 0) & ((x - y) * (x + y) > 750.0)
    assert np.array_equal(got[far], -w_quiet(-z[far]))


def w_mpmath(z):
    z = mp.mpc(z)
    return complex(mp.exp(-z * z) * mp.erfc(-1j * z))


def dawson_mpmath(x):
    x = mp.mpf(x)
    return float(mp.sqrt(mp.pi) / 2 * mp.exp(-x * x) * mp.erfi(x))


@settings(max_examples=40, deadline=None)
@given(polar(6.0) | st.builds(complex, st.floats(-1e6, 1e6)))
@example(1e-320 + 0j)
@example(5e-324 + 0j)
def test_w_against_mpmath(z):
    with mp.workdps(40):
        want = w_mpmath(z)
        got = complex(w_quiet(z))
        assert abs(got - want) <= TOL * abs(want)
        if z.imag == 0.0:
            # Im w(x) = (2/sqrt(pi)) dawson(x), relative to its own size
            x = z.real
            assert abs(got.imag - want.imag) <= TOL * abs(want.imag) + SUBNORMAL_ULP
            d = dawson_mpmath(x)
            assert abs(faddeeva.dawson(x) - d) <= TOL * abs(d) + SUBNORMAL_ULP
