"""Error-bound constants and curves."""

import math

import numpy as np
import pytest

from faddeeva.bounds import (
    abs_bound,
    component_bounds,
    constants,
    hunter_regan_bound,
    rel_bound,
)
from faddeeva.errors import ParameterError, SingularBoundError


class TestConstants:
    def test_four_significant_figures(self):
        c = constants()
        assert c.c_a == pytest.approx(4.934, rel=5e-4)
        assert c.c_r == pytest.approx(60.77, rel=5e-4)
        assert c.c_star == pytest.approx(1.0234, rel=5e-4)
        assert c.big_c1 == pytest.approx(0.6692, rel=5e-4)
        assert c.big_c2 == pytest.approx(3.971, rel=5e-4)

    def test_closed_forms(self):
        c = constants()
        e, pi = math.e, math.pi
        assert c.c_a == 2 * (2 * e + math.sqrt(pi)) / math.sqrt(e * pi)
        assert c.c_star == 1 / (1 - math.exp(-2 * pi + math.sqrt(2 * pi)))


class TestAbsBound:
    def test_n20_window(self):
        assert 3.3e-28 <= abs_bound(20) <= 3.5e-28

    def test_n0_is_c1(self):
        assert abs_bound(0) == constants().big_c1

    def test_ratio_is_exp_pi(self):
        for n in range(0, 20):
            ratio = abs_bound(n + 1) / abs_bound(n)
            assert ratio == pytest.approx(math.exp(-math.pi), rel=1e-13)

    def test_negative_order(self):
        # the order check of w(z, n=...): an integer in [0, N_MAX], not a bool
        for fn in (abs_bound, rel_bound, component_bounds):
            for n in (-1, True, 2.5, 26):
                with pytest.raises(ParameterError):
                    fn(n)


class TestRelBound:
    def test_n20_window(self):
        assert 9.2e-27 <= rel_bound(20) <= 9.4e-27

    def test_n0_is_c2(self):
        assert rel_bound(0) == constants().big_c2

    def test_n11(self):
        assert rel_bound(11) == pytest.approx(3.971081829 * math.sqrt(12) * math.exp(-11 * math.pi), rel=1e-8)
        assert rel_bound(11) == pytest.approx(1.35e-14, rel=1e-2)

    def test_log_linear_slope(self):
        ns = np.arange(0, 21)
        logs = np.log([abs_bound(int(n)) for n in ns])
        slopes = np.diff(logs)
        np.testing.assert_allclose(slopes, -math.pi, rtol=1e-12)


class TestComponentBounds:
    def test_assembly_consistency(self):
        # trap + trunc <= C1 e^{-pi N} for each N (theorem assembly)
        for n in range(0, 21):
            trap, trunc = component_bounds(n)
            assert trap > 0 and trunc > 0
            assert trap + trunc <= abs_bound(n) * (1 + 1e-12)

    def test_shared_exponent(self):
        # both components carry exp(-(N+1) pi); their ratio is h-polynomial
        t5 = component_bounds(5)
        t6 = component_bounds(6)
        for a, b in zip(t5, t6):
            assert b / a == pytest.approx(math.exp(-math.pi), rel=0.35)

    def test_n11_truncation_size(self):
        _, trunc = component_bounds(11)
        cap = 10 * math.sqrt(2) * (1 + 2 * math.pi) / math.pi**2 * math.exp(-12 * math.pi)
        assert trunc <= cap
        assert cap == pytest.approx(6.0e-16, rel=0.05)


class TestHunterRegan:
    def test_singularity(self):
        h = 0.5
        with pytest.raises(SingularBoundError):
            hunter_regan_bound(complex(math.pi / h, 1.0), h)

    def test_blow_up_monotone(self):
        h = 0.5
        pole = math.pi / h
        vals = [hunter_regan_bound(complex(pole - d, 1.0), h) for d in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_golden_value(self):
        # direct evaluation of the closed form at z = 1+i, h = 0.5
        v = hunter_regan_bound(1 + 1j, 0.5)
        z = 1 + 1j
        q = math.exp(-math.pi**2 / 0.25)
        expected = (
            2 * abs(z * np.exp(-(z * z))) * q
            / (math.sqrt(math.pi) * (1 - q * q) * abs(1 - math.pi**2 / 0.25))
        )
        assert v == pytest.approx(expected, rel=1e-12)
        assert v == pytest.approx(2.9682052820976784e-19, rel=1e-10)

    def test_exponent_doubling(self):
        h = 0.5
        r = hunter_regan_bound(1 + 1j, h / math.sqrt(2)) / hunter_regan_bound(1 + 1j, h)
        assert r == pytest.approx(math.exp(-math.pi**2 / h**2), rel=0.1)

    def test_domain(self):
        with pytest.raises(ParameterError):
            hunter_regan_bound(-1 + 1j, 0.5)
