"""Certification of the double-double reference evaluator.

The order-20 dispatch (`w_oracle`) is checked against a fully independent
brute-force oracle, `certification.py` beside this file: composite
Gauss-Legendre quadrature of the Cauchy integral for w(z) (and of the real
integral for erfc) carried in double-double with panel doubling until
convergence.
"""

import warnings

import numpy as np
import pytest

import faddeeva
from faddeeva import core, oracle
from faddeeva.core import BranchTag
from faddeeva.ddouble import DD, dd_exp
from faddeeva.oracle import ORACLE_N, erfc_oracle, w_oracle, w_ref

from certification import erfc_quadrature, w_quadrature


def dd_abs(ddc):
    return np.hypot(ddc.re.hi, ddc.im.hi)


def diff_abs(a, b):
    dr = a.re - b.re
    di = a.im - b.im
    return np.hypot(dr.hi + dr.lo, di.hi + di.lo)


class TestExactPoints:
    def test_origin_exact(self):
        r = w_oracle(0j)
        assert r.re.hi == 1.0 and r.re.lo == 0.0
        assert r.im.hi == 0.0 and r.im.lo == 0.0

    def test_real_axis_identity_26_digits(self):
        # Re w(x) = exp(-x^2) on the real axis
        r = w_oracle(1.0 + 0j)
        e1 = dd_exp(DD(-1.0))
        err = abs((r.re.hi - e1.hi) + (r.re.lo - e1.lo))
        assert err < float(np.exp(-1.0)) * 1e-26

    def test_imag_axis_vs_erfc_quadrature(self):
        # w(i) = e * erfc(1); erfc(1) from the independent quadrature oracle
        r = w_oracle(1j)
        erfc1 = erfc_quadrature(1.0)
        e = dd_exp(DD(1.0))
        expected = e * erfc1
        err = abs((r.re.hi - expected.hi) + (r.re.lo - expected.lo))
        assert err < expected.hi * 1e-25
        assert abs(r.im.hi) < 1e-30


class TestErfcOracle:
    def test_zero_exact(self):
        r = erfc_oracle(0j)
        assert r.re.hi == 1.0 and r.im.hi == 0.0

    def test_erfc_one_25_digits(self):
        r = erfc_oracle(1.0 + 0j)
        q = erfc_quadrature(1.0)
        err = abs((r.re.hi - q.hi) + (r.re.lo - q.lo))
        assert err < q.hi * 1e-25

    def test_reflection_28_digits(self):
        # erfc_oracle(-0.8) is computed as 2 - erfc(0.8) by the fold that it
        # shares with erfc, so this checks the fold identity to 28 digits
        a = erfc_oracle(0.8 + 0j)
        b = erfc_oracle(-0.8 + 0j)
        s = a.re + b.re  # double-double addition
        assert abs((s.hi - 2.0) + s.lo) < 1e-28

    def test_fold_far_left_is_two(self):
        # beyond Re z = -26.7, where e^{-z^2} w(iz) would overflow to NaN,
        # the fold gives 2 - erfc(-z) = 2, as erfc does
        for z in (-27.0, -30 + 1j, -1e10 + 0.5j, complex(-np.inf, 1.0)):
            assert erfc_oracle(z).to_complex() == 2, z

    def test_infinite_real_part(self):
        # the limits 0 and 2, as erfc gives them
        for z, limit in ((np.inf, 0.0), (-np.inf, 2.0)):
            r = erfc_oracle(z)
            assert (r.re.hi, r.re.lo, r.im.hi, r.im.lo) == (limit, 0.0, 0.0, 0.0)
        r = erfc_oracle(np.array([-np.inf, 1.0, np.inf]))
        assert r.re.hi.tolist() == [2.0, erfc_oracle(1.0).re.hi, 0.0]


class TestCertification:
    def test_quadrature_agreement_sample(self):
        # light version of the acceptance criterion (20 of the 100 points)
        rng = np.random.default_rng(123)
        x = rng.uniform(-5.0, 5.0, 20)
        y = rng.uniform(0.1, 10.0, 20)
        z = x + 1j * y
        ref = w_oracle(z)
        for j, zj in enumerate(z):
            q = w_quadrature(zj)
            d = diff_abs(w_oracle(zj), q)
            assert d <= 1e-25 * dd_abs(q), f"point {zj}"
            # and the vectorized path matches the scalar path
            dv = np.hypot(
                (ref.re.hi[j] - w_oracle(zj).re.hi), (ref.im.hi[j] - w_oracle(zj).im.hi)
            )
            assert dv == 0.0

    def test_order19_vs_order20(self):
        rng = np.random.default_rng(5)
        r = 10.0 ** rng.uniform(-3, 2, 1000)
        th = rng.uniform(0.0, np.pi / 2, 1000)
        z = r * np.exp(1j * th)
        d = diff_abs(w_ref(z, ORACLE_N - 1), w_ref(z, ORACLE_N))
        assert float(np.max(d)) <= 8e-27

    def test_full_plane_symmetries(self):
        z = np.array([1.3 + 0.7j, -1.3 + 0.7j, 1.3 - 0.7j, -2.0 - 0.1j])
        r = w_oracle(z)
        ru = w_oracle(np.array([1.3 + 0.7j]))
        # conjugate symmetry for the second quadrant
        assert r.re.hi[1] == ru.re.hi[0] and r.im.hi[1] == -ru.im.hi[0]
        # lower half-plane via w(-z) = 2 exp(-z^2) - w(z)
        v = r.to_complex()
        assert np.isfinite(v[2]) and np.isfinite(v[3])
        # z[2] = -z[1], so w(z[2]) + w(z[1]) = 2 exp(-z[1]^2)
        lhs = v[2] + v[1]
        rhs = 2.0 * np.exp(-(z[1] * z[1]))
        assert abs(lhs - rhs) < 1e-14 * abs(rhs)

    def test_reflection_past_split_range_vs_mpmath(self):
        # past about 1.3e300 the modulus of e^{-z^2} overflows the Dekker
        # split of a plain DD product; binary64 w is finite there
        mp = pytest.importorskip("mpmath")
        z = np.array([-26.5j, -26.6j, 0.3 - 26.6j, -2 - 26.6j, 1.1 - 26.62j])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = w_oracle(z)
        with mp.workdps(60):
            for j, zj in enumerate(z):
                zm = mp.mpc(zj)
                want = mp.exp(-zm * zm) * mp.erfc(-1j * zm)
                got = mp.mpc(mp.mpf(r.re.hi[j]) + mp.mpf(r.re.lo[j]),
                             mp.mpf(r.im.hi[j]) + mp.mpf(r.im.lo[j]))
                assert abs(got - want) <= 1e-29 * abs(want), zj


class TestCorrectionSkip:
    @staticmethod
    def below_cut(p, size=4000):
        """MM and MT points whose exponent y^2 - x^2 - 2 pi y/h lies just below the cut."""
        rng = np.random.default_rng(17)
        y = rng.uniform(0.0, 46.0, size)
        exponent = rng.uniform(-760.0, core._LIVE_EXPONENT, y.size)
        x = np.sqrt(y * y - (2.0 * np.pi / p.h) * y - exponent)
        assert np.all(x > y)
        return x, y

    def test_skipped_corrections_are_zero(self):
        # computed anyway, the correction is exactly 0 in both arithmetics
        for n in (core.DEFAULT_N, ORACLE_N):
            p = core._params(n)
            x, y = self.below_cut(p)
            _, mt, mm, _ = core._branch_masks(x, y, p)
            sq = oracle._z2_dd(x, y)
            for tag, sel in ((BranchTag.MT, mt), (BranchTag.MM, mm)):
                idx = np.flatnonzero(sel)
                assert idx.size > 1000
                xi, yi = x[idx], y[idx]
                c = core._corrections(xi, p, yi, xi * xi - yi * yi, 2.0 * xi * yi, tag)
                assert not np.any(c.real) and not np.any(c.imag)
                c = oracle._corrections_dd(x[idx], y[idx], tuple(v[idx] for v in sq), n, tag)
                for part in (c.re.hi, c.re.lo, c.im.hi, c.im.lo):
                    assert not np.any(part)

    def test_w_skips_corrections_below_cut(self, monkeypatch):
        # w computes the correction only on the corrected points above the cut
        p = core._params(core.DEFAULT_N)
        x, y = self.below_cut(p)
        live = np.array([1.0 + 1.0j, 3.2 + 0.1j])
        reached = []
        corrections = core._corrections

        def counting(z, *args):
            reached.append(np.size(z))
            return corrections(z, *args)

        monkeypatch.setattr(core, "_corrections", counting)
        faddeeva.w(x + 1j * y)
        assert reached == []
        faddeeva.w(np.concatenate([x + 1j * y, live]))
        assert sum(reached) == live.size

    def test_far_real_axis_finite(self):
        # the correction there used to run dd_sincos on 2 pi x/h ~ 1e40, and
        # the reflection on 2xy ~ 4e78, past its reduction, and returned NaN;
        # from |z| ~ 1e76 the node sum's divisor |z^2 - t_k^2|^2 would
        # overflow the double-double product: the far field takes those.
        # Below the real axis with x^2 - y^2 > 750 the reflection never
        # squares x, which may be infinite or past 1.3e154.  At an infinite
        # imaginary part both are 0
        z = np.array([
            3e38 + 0j, 1e39 + 0j, 2e39 + 1e39j, 2e39 - 1e39j, -5e30 - 1e30j,
            1e76 + 0j, 1e76 * (1 + 0.1j), 1e100 + 1e90j, 1e300 + 1e299j,
            -np.inf - 1j, np.inf - 0.5j, 1e200 - 1e199j,
            complex(1.0, np.inf), complex(-np.inf, np.inf),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = w_oracle(z).to_complex()
        want = faddeeva.w(z)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_far_constant_rounds_to_binary64():
    # the DD c = (2h/pi) sum_k e^{-t_k^2} and the binary64 one agree to 1 ulp
    for n in range(core.N_MAX + 1):
        c = core._params(n).c
        c_dd = oracle._dd_params(n)[5]
        assert abs((c_dd.hi + c_dd.lo) - c) <= np.spacing(c)


@pytest.mark.parametrize("x", [0.25, 1.0, 2.0, 4.0])
def test_erfc_quadrature_monotone_tail(x):
    v = erfc_quadrature(x)
    assert 0.0 < v.hi < 1.0
