"""Competitor evaluators: continued fraction, rational model, sum split."""

import math

import numpy as np
import pytest

from faddeeva import core
from faddeeva.ddouble import DD, DDComplex
from faddeeva.errors import ConstructionError, DomainError
from faddeeva.oracle import w_oracle
from faddeeva.reference import (
    WeidemanModel,
    ZaghloulParams,
    cf_convergent,
    default_weideman_model,
    weideman_eval,
    weideman_fit_coeffs,
    zaghloul_eval,
    _sums_vec,
)


def oracle_c(z):
    return w_oracle(np.asarray(z, dtype=np.complex128)).to_complex()


class TestContinuedFraction:
    def test_first_convergent(self):
        v = cf_convergent(2j, 1)
        assert v == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-12)
        assert v.imag == 0.0

    def test_n9_at_10i(self):
        ref = oracle_c(10j)
        assert abs(cf_convergent(10j, 9) - ref) / abs(ref) < 1e-13

    def test_error_decays_along_ray(self):
        ts = np.linspace(8.0, 32.0, 25)
        z = ts * np.exp(1j * np.pi / 4)
        ref = oracle_c(z)
        errs = np.abs(cf_convergent(z, 9) - ref) / np.abs(ref)
        # monotone decrease on the pre-floor segment
        pre = errs[errs > 5e-16]
        assert np.all(np.diff(pre) < 0)
        assert errs[-1] < errs[0]

    def test_backward_equals_topdown(self):
        rng = np.random.default_rng(11)
        z = 8.0 + 10.0 ** rng.uniform(0, 1.5, 20) * np.exp(1j * rng.uniform(0, np.pi, 20))
        n = 9

        def topdown(zz):
            # naive evaluation of the finite continued fraction from the top
            def tail(m):
                if m == n:
                    return zz
                return zz - (m / 2.0) / tail(m + 1)

            return (1j / math.sqrt(math.pi)) / tail(1)

        back = cf_convergent(z, n)
        naive = np.array([topdown(zz) for zz in z])
        assert np.max(np.abs(back - naive) / np.abs(naive)) < 5e-15


class TestWeideman:
    def test_scale_invariant(self):
        m = default_weideman_model(40)
        assert m.l == 2.0 ** (-0.25) * math.sqrt(40)
        assert m.coeffs.shape == (40,)
        assert m.coeffs.dtype == np.float64

    def test_w0(self):
        m = default_weideman_model(40)
        assert abs(weideman_eval(0j, m) - 1.0) < 1e-14

    def test_point_accuracy(self):
        m = default_weideman_model(40)
        for z in (1 + 1j, 0.3 + 2j, 5 + 0.01j):
            ref = oracle_c(z)
            assert abs(weideman_eval(z, m) - ref) / abs(ref) < 3e-15

    def test_large_imag_asymptotic(self):
        m = default_weideman_model(40)
        z = 1e6j
        ref = oracle_c(z)
        assert abs(weideman_eval(z, m) - ref) / abs(ref) < 1e-13

    def test_domain_error(self):
        m = default_weideman_model(40)
        with pytest.raises(DomainError):
            weideman_eval(1 - 1j, m)

    def test_fit_reproduces_samples(self):
        m = default_weideman_model(40)
        theta = np.pi * (2 * np.arange(80) + 1) / 80
        zs = m.l * np.tan(theta / 2)
        resid = np.abs(weideman_eval(zs, m) - oracle_c(zs))
        assert np.max(resid) <= 1e-14

    def test_low_order_rejected(self):
        # refused before fitting: at n = 34 the fit's residual would be 1.1e-14
        for n in (4, 34):
            with pytest.raises(ValueError, match=">= 35"):
                weideman_fit_coeffs(n)

    def test_bad_oracle_raises_construction_error(self):
        with pytest.raises(ConstructionError):
            weideman_fit_coeffs(
                40, oracle=lambda z: DDComplex(DD(np.ones_like(z)), DD(np.full_like(z, 0.5)))
            )

    def test_model_validation(self):
        with pytest.raises(ValueError):
            WeidemanModel(n=40, l=1.0, coeffs=np.zeros(3))


class TestZaghloulSums:
    def test_x_zero_identities(self):
        s1, s2, s3, s4, s5 = _sums_vec(0.0, 1.5, ZaghloulParams())
        assert s1 == s2 == s3
        assert s4 == s5

    def test_origin_sum_vs_bruteforce(self):
        p = ZaghloulParams(a=0.5, terms=50)
        s1 = _sums_vec(0.0, 0.0, p)[0]
        k = np.arange(1, 51)
        brute = float(np.sum(np.exp(-(k**2) / 4.0) / (k**2 / 4.0)))
        assert s1 == pytest.approx(brute, rel=1e-15)

    def test_truncation_converged(self):
        # doubling K changes nothing at binary64 for x, y in [0, 10]
        x, y = np.random.default_rng(17).uniform(0, 10, (20, 2)).T
        a = _sums_vec(x, y, ZaghloulParams(terms=50))
        b = _sums_vec(x, y, ZaghloulParams(terms=100))
        for u, v in zip(a, b):
            assert np.all(np.abs(u - v) <= 1e-16 * np.maximum(1.0, np.abs(u)))


class TestZaghloulEval:
    def test_imag_axis_is_erfcx(self):
        v = zaghloul_eval(2j)
        assert v.imag == 0.0
        ref = oracle_c(2j)
        assert abs(v.real - ref.real) < 1e-15

    def test_real_axis(self):
        ref = oracle_c(2.0 + 0j)
        assert abs(zaghloul_eval(2.0 + 0j) - ref) < 1e-13

    def test_continuity_at_real_axis(self):
        for x in (0.5, 1.0, 5.0):
            v0 = zaghloul_eval(complex(x, 0.0))
            for eps in (1e-6, 1e-9, 1e-12):
                v = zaghloul_eval(complex(x, eps))
                assert abs(v - v0) < 1e-5 * max(abs(v0), 1e-3)
            v = zaghloul_eval(complex(x, 1e-12))
            assert abs(v - v0) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            zaghloul_eval(-1 + 1j)
        with pytest.raises(DomainError):
            zaghloul_eval(1 - 1j)


class TestCrossAgreement:
    def test_all_methods_agree_with_core(self):
        # overlap of all rated domains: |z| >= 8 in the first quadrant
        rng = np.random.default_rng(23)
        r = 10.0 ** rng.uniform(np.log10(8.0), 2, 50)
        th = rng.uniform(0.0, np.pi / 2, 50)
        z = r * np.exp(1j * th)
        wc = np.asarray(core.w_plane(z, 11))
        m = default_weideman_model(40)
        for vals in (cf_convergent(z, 9), weideman_eval(z, m), zaghloul_eval(z)):
            assert np.max(np.abs(vals - wc) / np.abs(wc)) < 1e-12

    @pytest.mark.parametrize("z", [complex(np.nan, 1.0), complex(20.0, np.nan), [1j, np.nan]])
    def test_nan_component_raises_domain_error(self, z):
        # NaN is refused as w refuses it, not evaluated to NaN or to a breakdown
        m = default_weideman_model(40)
        for evaluate in (cf_convergent, lambda v: weideman_eval(v, m), zaghloul_eval):
            with pytest.raises(DomainError, match="NaN component"):
                evaluate(z)
