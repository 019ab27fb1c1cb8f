"""Binary64 evaluator: dispatch, rules, symmetries, derived functions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import faddeeva
from faddeeva import core, oracle, reference
from faddeeva.bounds import abs_bound
from faddeeva.ddouble import DD, PI, DDComplex, dd_exp, dd_sqrt, dd_sum
from faddeeva.errors import DomainError, ParameterError
from faddeeva.oracle import erfc_oracle, w_oracle

P11 = core._params(11)


def oracle_c(z):
    return w_oracle(np.asarray(z, dtype=np.complex128)).to_complex()


def assert_leading_word(mp, got, dd, exact):
    """``got`` is the leading word of ``dd`` and within half an ulp of ``exact``."""
    assert got == dd.hi
    assert abs(mp.mpf(got) - exact) <= mp.mpf(np.spacing(got)) / 2


class TestStepSize:
    def test_examples(self):
        assert core.step_size(0) == pytest.approx(1.7724538509, abs=1e-10)
        assert core.step_size(11) == pytest.approx(0.5116633539, abs=1e-10)
        assert core.step_size(20) == pytest.approx(0.3867811399, abs=1e-10)

    def test_single_rounding(self):
        # h, h/pi and pi/h are each the single rounding of the exact
        # constant, h/pi and pi/h the leading words of their double-double values
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for n in range(core.N_MAX + 1):
                p, dd = core._params(n), core._params(n).dd
                assert core.step_size(n) == p.h
                h = mp.sqrt(mp.pi / (n + 1))
                assert abs(mp.mpf(p.h) - h) <= mp.mpf(np.spacing(p.h)) / 2
                assert_leading_word(mp, p.h_over_pi, dd.h_over_pi, h / mp.pi)
                assert_leading_word(mp, p.pi_over_h, dd.pi_over_h, mp.pi / h)

    @pytest.mark.parametrize("n", [-1, 26, 1000])
    def test_out_of_range(self, n):
        with pytest.raises(ParameterError):
            core.step_size(n)

    @pytest.mark.parametrize("n", [True, False])
    def test_bool_rejected(self, n):
        with pytest.raises(ParameterError):
            core.step_size(n)


class TestEvalParams:
    def test_nodes(self):
        # the pairs (node^2, (2h/pi) e^{-node^2}), last node first, are the
        # leading words of their double-double values and correctly rounded
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for n in range(core.N_MAX + 1):
                p, dd = core._params(n), core._params(n).dd
                assert p.n == n
                h = mp.sqrt(mp.pi / (n + 1))
                mid = [k + mp.mpf(0.5) for k in range(n, -1, -1)]
                trap = [mp.mpf(k) for k in range(n, 0, -1)]
                for pairs, (t2_dd, w_dd), ks in ((p.mid, dd.mid, mid), (p.trap, dd.trap, trap)):
                    assert len(pairs) == len(ks)
                    for j, ((t2, w), k) in enumerate(zip(pairs, ks)):
                        assert_leading_word(mp, t2, t2_dd[j], (k * h) ** 2)
                        assert_leading_word(mp, w, w_dd[j], 2 * h / mp.pi * mp.exp(-((k * h) ** 2)))

    @pytest.mark.parametrize("n", [0, 11, 20, 25])
    def test_dd_table_matches_scalar_build(self, n):
        # the table's node work runs on arrays; node by node in scalar
        # double-double it gives the same words, so the oracle's do not move
        dd = core._params(n).dd
        pi = DD.from_pair(PI)
        h = dd_sqrt(pi / float(n + 1))

        def same(a, b):
            return (a.hi, a.lo) == (b.hi, b.lo)

        def scalar_nodes(ks):
            return [(tk * tk, dd_exp(-(tk * tk)) * ((h * 2.0) / pi)) for tk in (h * k for k in ks)]

        mid = scalar_nodes([k + 0.5 for k in range(n, -1, -1)])
        trap = scalar_nodes([float(k) for k in range(n, 0, -1)])
        for table, pairs in ((dd.mid, mid), (dd.trap, trap)):
            # (t^2, (2h/pi) e^{-t^2}) and nothing else
            assert len(table) == 2
            t2, w = table
            assert t2.hi.size == len(pairs)
            for j, (t2_k, w_k) in enumerate(pairs):
                assert same(t2[j], t2_k) and same(w[j], w_k)
        weights = DD(np.array([w.hi for _, w in mid]), np.array([w.lo for _, w in mid]))
        assert same(dd.c, dd_sum(weights))

    def test_far_constant_is_first_moment(self):
        # c = mu_0 in both words: FAR's i c/z is the first term of the
        # midpoint rules' Laurent series, summed alike
        for n in range(core.N_MAX + 1):
            p = core._params(n)
            assert p.c == core._laurent_coeffs(n, False)[0]
            mu0 = dd_sum(p.dd.mid[1])
            assert (p.dd.c.hi, p.dd.c.lo) == (mu0.hi, mu0.lo), n

    def test_cached(self):
        assert core._params(7) is core._params(7) is core._params(np.int64(7))

    @pytest.mark.parametrize("n", [True, False])
    def test_bool_rejected(self, n):
        with pytest.raises(ParameterError):
            core._params(n)

    def test_bool_rejected_after_equal_order(self):
        # True == np.int64(1) and both hash alike, so a cache keyed on the
        # order alone would take True for the order 1
        faddeeva.w(1 + 1j, n=np.int64(1))
        with pytest.raises(ParameterError):
            faddeeva.w(1 + 1j, n=True)


class TestOrderArgument:
    """The public functions take the order as the integer ``n``."""

    CALLS = {
        "w": lambda **kw: faddeeva.w(1 + 1j, **kw),
        "erfc": lambda **kw: faddeeva.erfc(0.5, **kw),
        "erf": lambda **kw: faddeeva.erf(0.5, **kw),
        "erfcx": lambda **kw: faddeeva.erfcx(0.5, **kw),
        "dawson": lambda **kw: faddeeva.dawson(0.5, **kw),
        "voigt": lambda **kw: faddeeva.voigt(0.5, 0.5, **kw),
        "select_branch": lambda **kw: faddeeva.select_branch(3.2 + 0.1j, **kw),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_default_is_n11(self, name):
        assert self.CALLS[name]() == self.CALLS[name](n=11)

    def test_order_is_used(self):
        assert faddeeva.w(1 + 1j, n=0) != faddeeva.w(1 + 1j)
        assert faddeeva.w(1 + 1j, n=15) == faddeeva.w(1 + 1j, 15)

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("n", [core._params(11), True, -1, 26, 11.0])
    def test_non_order_rejected(self, name, n):
        with pytest.raises(ParameterError):
            self.CALLS[name](n=n)

    def test_eval_params_not_exported(self):
        assert not hasattr(faddeeva, "EvalParams")
        assert "EvalParams" not in faddeeva.__all__


def rule(x, y, p, tag, arith=core._BINARY64):
    """The part ``tag`` of the dispatch of order p.n in ``arith`` forced at
    every point x + iy, through its parts and _partition: the rule, or where
    binary64's _parts routes a point to one, the rule's series, or FAR's
    i c/z."""
    masks = [np.full(x.shape, t is tag) for t in core.BranchTag]
    out = arith.empty(x.shape)
    core._partition(x, y, arith.parts(x, y, p, masks), out)
    return out


def rule_at(z, tag):
    """rule of order 11 at z, whatever part of the dispatch z falls in."""
    z = np.asarray(z, dtype=np.complex128)
    zf = np.atleast_1d(z)
    out = rule(zf.real.copy(), zf.imag.copy(), P11, tag)
    return complex(out[0]) if z.ndim == 0 else out


M, MM, MT, FAR = core.BranchTag.M, core.BranchTag.MM, core.BranchTag.MT, core.BranchTag.FAR


class TestMidSum:
    def test_zero(self):
        assert rule_at(0j, M) == 0j

    def test_reflection_symmetry(self):
        # w_N(-conj z) = conj w_N(z) bit for bit, in both arithmetics, in each
        # part of the dispatch: each rule with its correction below the
        # far-field cut, and FAR above it (x = -inf there scales to -1).  The
        # dispatch relies on it to evaluate x < 0 without a fold.  Near
        # x = h/2 the correction's phase 2 pi x/h is pi to the last bit,
        # midway between two reductions by 2 pi (in DD at N = 20, one ulp
        # below h/2)
        half_h = np.array([P11.h / 2, core._params(oracle.ORACLE_N).h / 2])
        half_h = np.concatenate([np.nextafter(half_h, 0), half_h, np.nextafter(half_h, 1)])
        # 0.05 + 0.03j lies within h/4 of 0, where binary64 MM takes its
        # Maclaurin series, and the last four lie beyond |z| = 64, where each
        # rule takes its Laurent series
        near = np.concatenate(
            [[1 + 2j, 3.2 + 0.1j, 0.4 + 0.3j, 2.9 + 1e-3j, 0.05 + 0.03j,
              45 + 50j, 50 + 45j, 70.3 + 5j, 120 + 0.5j], half_h + 0.1j]
        )
        far = np.array([1e25 + 1j, 1e300 + 1e290j, complex(np.inf, 2.0)])
        arithmetics = [
            (P11, rule, lambda w: (w.real, w.imag)),
            (core._params(oracle.ORACLE_N), lambda *a: rule(*a, arith=oracle._DD),
             lambda w: (w.re.hi, w.re.lo, w.im.hi, w.im.lo)),
        ]
        for p, rule_, words in arithmetics:
            for tag in core.BranchTag:
                z = far if tag is FAR else near
                a = words(rule_(-z.real, z.imag.copy(), p, tag))
                b = words(rule_(z.real.copy(), z.imag.copy(), p, tag))
                half = len(b) // 2
                conj_b = b[:half] + tuple(-v for v in b[half:])
                assert [_bits(v) for v in a] == [_bits(v) for v in conj_b], (p.n, z)

    def test_imag_axis_matches_oracle(self):
        # w(10i) = erfcx(10); M-branch territory
        ref = oracle_c(10j)
        assert abs(rule_at(10j, M) - ref) < 2e-15


class TestModMid:
    def test_origin_exact(self):
        assert rule_at(0j, MM) == 1.0 + 0j

    @pytest.mark.parametrize("z", [1 + 2j, 3 + 0.1j])
    def test_vs_oracle(self, z):
        assert abs(rule_at(z, MM) - oracle_c(z)) < abs_bound(11)


class TestModTrap:
    def test_vs_oracle(self):
        z = 3.2 + 0.1j  # frac(3.2/h) ~ 0.254, inside the MT window
        assert core.select_branch(z, 11) is MT
        assert abs(rule_at(z, MT) - oracle_c(z)) < abs_bound(11)

    def test_real_axis_midwindow(self):
        x = 1.5 * P11.h
        v = rule_at(x + 0j, MT)
        assert abs(v.real - math.exp(-x * x)) < abs_bound(11)

    def test_branch_agreement(self):
        # both rules valid at (k+3/4)h + 0.1i; they agree to 2*C1*e^{-pi N}
        for k in (2, 4, 7):
            z = (k + 0.75) * P11.h + 0.1j
            d = abs(rule_at(z, MT) - rule_at(z, MM))
            assert d <= 2 * abs_bound(11) + 8e-15


def pointwise_points(p):
    """1,069 points of the closed upper half-plane below FAR's cut for the
    order p.n: 1,000 seeded with |z| log-uniform in [1e-3, 1e3], the rims
    of both series with a neighbour on either side, signed zeros and a
    reproducer."""
    rng = np.random.default_rng(11)
    r = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 1000))
    z = r * np.exp(1j * rng.uniform(0.0, np.pi, r.size))
    rims = np.outer([core._LAURENT, p.h / 4], np.exp(1j * np.linspace(0.0, np.pi, 9))).ravel()
    rims = np.concatenate([rims * (1 - 2.0**-52), rims, rims * (1 + 2.0**-52)])
    zeros = [complex(sx, y) for sx in (0.0, -0.0) for y in (0.0, 0.05, 2.0, 100.0)]
    zeros += [complex(x, 0.0) for x in (0.05, -0.05, 3.0, -3.0, 100.0, -100.0)]
    # alone under MT, a point past |z| = 64 with |x| < 64/sqrt(2) took the
    # node sum, whose correction is NaN there
    return np.concatenate([z, rims, zeros, [-15.77 + 90.43j]])


@pytest.mark.parametrize("n", [0, 11, 25])
@pytest.mark.parametrize("tag", list(core.BranchTag), ids=lambda t: t.value)
def test_rule_pointwise(tag, n):
    """Each point is routed by its own |z|: forced through one tag, a whole
    array gives each point the bits it gives that point alone, NaN bits
    included, at points inside and outside the tag's own region below FAR's
    cut."""
    p = core._params(n)
    z = pointwise_points(p)
    x, y = z.real.copy(), z.imag.copy()
    # outside its own region a rule may overflow
    with np.errstate(all="ignore"):
        whole = rule(x, y, p, tag)
        alone = np.concatenate([rule(x[i:i + 1], y[i:i + 1], p, tag) for i in range(z.size)])
    differ = (whole.view(np.uint64) != alone.view(np.uint64)).reshape(-1, 2).any(axis=1)
    assert not differ.any(), (np.count_nonzero(differ), z[differ][:5])


#: at least two points of each of binary64's seven parts at N = 11, in
#: _parts' order: the node sums of M, MT and MM, the Maclaurin series, the
#: Laurent series of M and MM and of MT, and FAR; six below the real axis
ROUTING_MIX = np.array([
    0.5 + 9j, -2 + 7j, 3.2 + 0.1j, -3.2 - 0.1j, 1 + 1j, -2 - 0.5j, 0.05 + 0.05j, -0.1 - 0.02j,
    30 + 90j, -66.5 + 3j, 100 + 1j, -77 - 1j, -45 - 50j, 120 - 0.5j, 1e25 + 1j,
    complex(-np.inf, 2.0),
])


def dispatch_parts(z, p, tag=None):
    """_parts' masks at the points z, each folded into the upper half-plane
    as _evaluate folds it, and the branch masks they are built from:
    _branch_masks', or with ``tag`` that tag at every point, as rule
    forces it."""
    x = np.where(z.imag < 0, -z.real, z.real)
    y = np.abs(z.imag)
    if tag is None:
        masks = core._branch_masks(np.abs(x), y, p)
    else:
        masks = [np.full(x.shape, t is tag) for t in core.BranchTag]
    return np.array([sel for sel, _ in core._parts(x, y, p, masks)]), masks


class TestRouting:
    """Each block is split once into its (branch, path) parts, and a point's
    value does not depend on the other points of the call."""

    def test_mix_reaches_every_part(self):
        parts, _ = dispatch_parts(ROUTING_MIX, P11)
        assert parts.shape == (7, ROUTING_MIX.size)
        assert (parts.sum(axis=1) >= 2).all(), parts.sum(axis=1)

    # a point alone costs the oracle about 8 ms, so it checks every 16th of
    # the reflected points alone, and every point of the mix
    @pytest.mark.parametrize("evaluate, n, words, stride", [
        (core.w_plane, 11, lambda w: np.stack([w.real, w.imag]).view(np.uint64), 1),
        (oracle.w_ref, oracle.ORACLE_N,
         lambda w: np.stack([w.re.hi, w.re.lo, w.im.hi, w.im.lo]).view(np.uint64), 16),
    ], ids=["binary64", "oracle"])
    def test_whole_array_matches_each_point_alone(self, evaluate, n, words, stride):
        z = pointwise_points(core._params(n))
        z = np.concatenate([z, -np.conj(z), np.conj(z), -z, ROUTING_MIX])
        whole = words(evaluate(z, n)).reshape(-1, z.size)
        idx = np.r_[0:z.size - ROUTING_MIX.size:stride, z.size - ROUTING_MIX.size:z.size]
        alone = np.stack([words(evaluate(z[i:i + 1], n)).ravel() for i in idx], axis=-1)
        differ = (whole[:, idx] != alone).any(axis=0)
        assert not differ.any(), (np.count_nonzero(differ), z[idx][differ][:5])

    @pytest.mark.parametrize("n", [0, 11, 25])
    def test_parts_disjoint_and_cover(self, n):
        p = core._params(n)
        circle = np.exp(1j * np.linspace(0.0, np.pi, 9))
        radii = np.outer([core._LAURENT, p.h / 4], [1 - 2.0**-52, 1.0, 1 + 2.0**-52]).ravel()
        edge = [0.0, -0.0, 1.0, 1e20, np.nextafter(1e20, 0), np.inf]
        edge = [complex(sx * a, b) for a in edge for b in edge for sx in (1.0, -1.0)]
        z = np.concatenate([
            np.outer(radii, circle).ravel(), edge, pointwise_points(p), ROUTING_MIX,
        ])
        for tag in [None, *core.BranchTag]:
            parts, masks = dispatch_parts(z, p, tag)
            assert parts.shape == (7, z.size)
            assert (parts.sum(axis=0) == 1).all(), tag
            # the Maclaurin series sums MM points only
            assert not (parts[3] & ~masks[2]).any(), tag


class TestMaclaurin:
    """MM points within h/4 of 0 take the rule's Maclaurin series in binary64;
    the oracle's w_ref sums the same rule by its nodes and correction in
    double-double, so it shares no code with the series."""

    #: unit roundoff of binary64
    U = 2.0**-53

    @staticmethod
    def disk_points(n, count=256):
        """Seeded points of the disk |z| < h/4 in all four quadrants, with
        signed zeros, subnormal parts and points on the rim at 0.999 h/4."""
        r = core._params(n).h / 4
        rng = np.random.default_rng([11, n])
        z = r * np.sqrt(rng.uniform(0, 1, count)) * np.exp(1j * rng.uniform(-np.pi, np.pi, count))
        special = [
            complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
            complex(5e-324, 0.0), complex(-5e-324, 1e-310), complex(1e-310, -5e-324),
            complex(0.0, 1e-320), complex(-0.0, r / 2), complex(r / 2, -0.0),
        ]
        rim = 0.999 * r * np.exp(1j * np.linspace(-np.pi, np.pi, 16, endpoint=False))
        return np.concatenate([z, special, rim])

    @pytest.mark.parametrize("n", range(core.N_MAX + 1))
    def test_series_matches_node_sum(self, n):
        z = self.disk_points(n)
        got = core.w_plane(z, n)
        ref = oracle.w_ref(z, n).to_complex()
        err = np.abs(got - ref)
        bad = err > 8 * self.U * np.abs(ref)
        assert not bad.any(), list(zip(z[bad], err[bad] / np.abs(ref[bad])))

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")

        def w_mp(z, dps):
            with mp.workdps(dps):
                v = mp.mpc(z)
                return complex(mp.exp(-v * v) * mp.erfc(-1j * v))

        z = self.disk_points(core.DEFAULT_N)
        want = np.array([w_mp(v, 30) for v in z])
        assert np.array_equal(want, [w_mp(v, 60) for v in z])
        got = core.w_plane(z, core.DEFAULT_N)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-15

    def test_coefficients_built_on_first_disk_point(self):
        core._maclaurin_coeffs.cache_clear()
        core.w_plane(np.array([1.5 + 0.5j, 3.2 + 0.1j]), 11)
        assert core._maclaurin_coeffs.cache_info().currsize == 0
        core.w_plane(0.05 + 0.05j, 11)
        assert core._maclaurin_coeffs.cache_info().currsize == 1


class TestLaurent:
    """M, MT and MM points with |z| >= _LAURENT take the rules' Laurent
    series in binary64; the oracle's w_ref sums the same rules by their
    nodes and corrections in double-double, so it shares no code with the
    series."""

    #: unit roundoff of binary64
    U = 2.0**-53

    @staticmethod
    def far_points(n, count=300):
        """Seeded points with |z| log-uniform in [_LAURENT, 1e20) in all four
        quadrants, points on both axes, on the rim _LAURENT (1 + 2^-52) and
        just below FAR's cut."""
        rng = np.random.default_rng([23, n])
        r = np.exp(rng.uniform(np.log(core._LAURENT), np.log(1e20), count))
        z = r * np.exp(1j * rng.uniform(-np.pi, np.pi, count))
        angles = np.linspace(-np.pi, np.pi, 16, endpoint=False)
        rim = core._LAURENT * (1 + 2.0**-52) * np.exp(1j * angles)
        while (low := rim.real**2 + rim.imag**2 < core._LAURENT**2).any():
            rim[low] *= 1 + 2.0**-52
        edge = np.nextafter(core._FAR, 0)
        special = [
            complex(0.0, 100.0), complex(-0.0, 1e5), complex(0.0, edge), complex(-0.0, 5e12),
            complex(100.0, 0.0), complex(-1e5, 0.0), complex(3e9, -0.0), complex(-edge, 0.0),
            complex(edge, 1.0), complex(-edge, 1e19), complex(3.0, edge), complex(edge, edge),
            complex(-edge, edge), complex(edge, -edge / 2), complex(1.5, -edge),
        ]
        z = np.concatenate([z, rim, special])
        # below the real axis w(z) = 2 e^{-z^2} - w(-z).  Where that term is
        # not skipped, binary64's exp of the rounded z^2 is off by about
        # |z|^2 u: the reflection's error, not the series'.  Those points
        # are moved above the axis.
        ax, ay = np.abs(z.real), np.abs(z.imag)
        live = (z.imag < 0) & ((ax - ay) * (ax + ay) <= -core._LIVE_EXPONENT)
        z[live] = np.conj(z[live])
        return z

    @staticmethod
    def spy(monkeypatch):
        """The number of points _laurent evaluates, per call."""
        seen = []
        laurent = core._laurent

        def counted(x, y, p, tag):
            seen.append(x.size)
            return laurent(x, y, p, tag)

        monkeypatch.setattr(core, "_laurent", counted)
        return seen

    @pytest.mark.parametrize("n", range(core.N_MAX + 1))
    def test_series_matches_node_sum(self, n, monkeypatch):
        z = self.far_points(n)
        seen = self.spy(monkeypatch)
        got = core.w_plane(z, n)
        assert sum(seen) == z.size
        ref = oracle.w_ref(z, n).to_complex()
        for part in (np.real, np.imag):
            err = np.abs(part(got) - part(ref))
            bad = err > 8 * self.U * np.abs(part(ref))
            assert not bad.any(), list(zip(z[bad], err[bad] / np.abs(part(ref)[bad])))

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")

        def w_mp(z, dps):
            with mp.workdps(dps):
                v = mp.mpc(z)
                return complex(mp.exp(-v * v) * mp.erfc(-1j * v))

        z = self.far_points(core.DEFAULT_N)
        # the phase of e^{-z^2} needs the digits of |z|^2 beyond the 30
        dps = [30 + 2 * math.ceil(math.log10(abs(v))) for v in z]
        want = np.array([w_mp(v, d) for v, d in zip(z, dps)])
        assert np.array_equal(want, [w_mp(v, 2 * d) for v, d in zip(z, dps)])
        got = core.w_plane(z, core.DEFAULT_N)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-15

    def test_conjugate_symmetry(self):
        z = self.far_points(core.DEFAULT_N)
        assert _bits(core.w_plane(-np.conj(z), 11)) == _bits(np.conj(core.w_plane(z, 11)))

    def test_coefficients_built_on_first_far_point(self):
        core._laurent_coeffs.cache_clear()
        core.w_plane(np.array([1.5 + 0.5j, 3.2 + 0.1j, 40 + 30j]), 11)
        assert core._laurent_coeffs.cache_info().currsize == 0
        core.w_plane(30 + 90j, 11)
        assert core._laurent_coeffs.cache_info().currsize == 1

    def test_term_counts(self):
        counts = {
            trap: [len(core._laurent_coeffs(n, trap)) for n in range(core.N_MAX + 1)]
            for trap in (False, True)
        }
        assert counts[False][core.DEFAULT_N] == counts[True][core.DEFAULT_N] == 6
        assert set(counts[False]) <= {5, 6}
        # the trapezoidal sum of order 0 has no nodes: ih/(pi z) alone
        assert counts[True][0] == 1 and set(counts[True][1:]) <= {5, 6}

    def test_coefficients_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        n = core.DEFAULT_N
        with mp.workdps(50):
            h = mp.sqrt(mp.pi / (n + 1))
            for trap, nodes in ((False, [(k + mp.mpf(1) / 2) * h for k in range(n + 1)]),
                                (True, [k * h for k in range(1, n + 1)])):
                c = core._laurent_coeffs(n, trap)
                for j, cj in enumerate(c):
                    mu = 2 * h / mp.pi * mp.fsum(mp.exp(-t * t) * t ** (2 * j) for t in nodes)
                    if trap and j == 0:
                        mu += h / mp.pi
                    want = float((-1) ** j * mu)
                    assert abs(cj - want) <= abs(want) * 2.0**-52, (trap, j)
        # mu_0 is FAR's c: i c/z is the series' first term
        assert core._laurent_coeffs(n, False)[0] == pytest.approx(P11.c, rel=2.0**-52)


class TestSelectBranch:
    @staticmethod
    def branch(z):
        """select_branch at z, which must read |Re z|: the dispatch runs -x
        on x's branch."""
        tag = core.select_branch(z, 11)
        assert core.select_branch(complex(-z.real, z.imag), 11) is tag
        return tag

    def test_examples(self):
        assert self.branch(7j) is core.BranchTag.M
        assert self.branch(3.2 + 0.1j) is core.BranchTag.MT
        assert self.branch(0j) is core.BranchTag.MM

    def test_m_threshold(self):
        poh = np.pi / P11.h
        assert self.branch(1j * (poh + 0.01)) is core.BranchTag.M
        assert self.branch(1j * (poh - 0.01)) is core.BranchTag.MM

    def test_mt_requires_y_below_x(self):
        # same x as an MT point but y >= x disables MT
        assert self.branch(3.2 + 4j) is core.BranchTag.MM

    def test_far(self):
        # the far field is a part of the partition that select_branch reports
        for z in (1e25 + 1j, complex(-np.inf, 1.0), 1e20j, complex(1.0, np.inf)):
            assert self.branch(z) is FAR
        assert self.branch(1j * np.nextafter(1e20, 0)) is M
        assert self.branch(np.nextafter(1e20, 0) + 1j) is MM

    def test_domain(self):
        with pytest.raises(DomainError):
            core.select_branch(1 - 1e-300j, 11)


def test_branch_masks_partition():
    # exactly one of M, MT, MM, FAR at every point, over the whole binary64
    # range of |x| and y, and FAR exactly at and above the cut
    v = np.array([
        0.0, 5e-324, 2e-308, 0.3, P11.h / 2, 1.0, 3.2, np.pi / P11.h, 1e10,
        np.nextafter(1e20, 0), 1e20, np.nextafter(1e20, np.inf), 1e300, 1.7e308, np.inf,
    ])
    x, y = (a.ravel() for a in np.meshgrid(v, v))
    for n in (0, core.DEFAULT_N, oracle.ORACLE_N, core.N_MAX):
        masks = core._branch_masks(x, y, core._params(n))
        assert len(masks) == len(core.BranchTag)
        assert np.all(np.sum(masks, axis=0) == 1)
        assert np.array_equal(masks[-1], np.maximum(x, y) >= 1e20)


class TestQuadrant1:
    def test_origin(self):
        assert core.w_plane(0j, 11) == 1.0 + 0j

    def test_imag_axis(self):
        assert abs(core.w_plane(10j, 11) - oracle_c(10j)) < 2e-15

    @pytest.mark.parametrize("z", [-1 + 1j, 1 - 1j])
    def test_domain(self, z):
        # the first-quadrant hook that the benchmark's core.dispatch layer traces
        with pytest.raises(DomainError):
            core.w_quadrant1(z, 11)

    def test_infinite_imag_is_zero(self):
        # the far field scales an infinite part to 0
        assert core.w_plane(complex(1.0, np.inf), 11) == 0j
        assert core.w_plane(complex(np.inf, np.inf), 11) == 0j

    def test_node_distance_guarantee(self):
        # each point is at least h/4 from the poles of its dispatched rule:
        # +-t_k for M and MM, 0 and +-tau_k for MT
        rng = np.random.default_rng(0)
        z = rng.uniform(0, 10, 2000) + 1j * rng.uniform(0, 10, 2000)
        _, mt, _, _ = core._branch_masks(z.real, z.imag, P11)
        t = (np.arange(P11.n + 1) + 0.5) * P11.h
        tau = np.arange(1, P11.n + 1) * P11.h
        d_mid = np.min(np.abs(z[:, None] - np.concatenate((t, -t))), axis=1)
        d_trap = np.min(np.abs(z[:, None] - np.concatenate(([0.0], tau, -tau))), axis=1)
        assert np.all(np.where(mt, d_trap, d_mid) >= P11.h / 4 - 1e-12 * P11.h)

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(1)
        z = 10.0 ** rng.uniform(-5, 4, 500) * np.exp(1j * rng.uniform(0, np.pi / 2, 500))
        err = np.abs(core.w_plane(z, 11) - oracle_c(z))
        assert np.max(err) < 2e-15

    def test_lower_bound_consistency(self):
        rng = np.random.default_rng(2)
        z = 10.0 ** rng.uniform(-5, 4, 500) * np.exp(1j * rng.uniform(0, np.pi / 2, 500))
        w = core.w_plane(z, 11)
        lb = 1.0 / (1.0 + math.sqrt(math.pi) * np.abs(z)) - abs_bound(11)
        assert np.all(np.abs(w) >= lb)


class TestPlane:
    def test_functional_equation(self):
        z = 1 + 1j
        s = core.w_plane(z, 11) + core.w_plane(-z, 11)
        assert abs(s - 2 * np.exp(-(z * z))) < 4e-16

    def test_second_quadrant_bit_exact(self):
        a = core.w_plane(-2 + 0.5j, 11)
        b = core.w_plane(2 + 0.5j, 11)
        assert a == np.conj(b)

    def test_lower_half_overflow(self):
        from scipy.special import wofz

        z = np.array([1 - 30j, -30j, -1 - 30j, 0.5 - 27j, -3 - 40j, 20 - 50j])
        v = core.w_plane(z, 11)
        ref = wofz(z)
        assert not np.any(np.isnan(v.real) | np.isnan(v.imag))
        assert np.all(np.isinf(v.real) | np.isinf(v.imag))
        for part in (np.real, np.imag):
            np.testing.assert_array_equal(np.isinf(part(v)), np.isinf(part(ref)))
            np.testing.assert_array_equal(np.sign(part(v)), np.sign(part(ref)))
        assert core.w_plane(-30j, 11) == complex(np.inf, 0.0)
        assert core.w_plane(1 - 30j, 11) == complex(-np.inf, -np.inf)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            core.w_plane(complex(float("nan"), 0.0), 11)

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    @example(0.0, 0.0)
    @example(0.0, 0.05)
    @example(0.0, 2.0)
    @example(0.0, 10.0)
    @example(5e-324, 2.0)
    @settings(max_examples=150)
    def test_conjugate_symmetry_property(self, x, y):
        # compared by bits: on the imaginary axis, and where Im w underflows,
        # the two sides differ only in the sign of a zero imaginary part
        z = np.array([complex(x, y), complex(-x, y)])
        a = np.asarray(core.w_plane(-np.conj(z), 11))
        assert _bits(a) == _bits(np.conj(core.w_plane(z, 11)))


class TestMinusIInf:
    """At Im z = -inf, e^{-z^2} has a phase only on Re z = +-0, where w has
    the axis limit inf +- 0i, as scipy.special.wofz gives; _evaluate takes
    it in both arithmetics and refuses every other -i inf point."""

    def test_axis_limit(self):
        for re in (0.0, -0.0):
            z = complex(re, -np.inf)
            assert _bits(np.array(core.w_plane(z, 11))) == _bits(np.array(complex(np.inf, re)))
            words = [float(v) for part in (w_oracle(z).re, w_oracle(z).im) for v in (part.hi, part.lo)]
            assert _bits(np.array(words)) == _bits(np.array([np.inf, 0.0, re, re]))

    def test_erfcx_at_minus_inf(self):
        # erfcx(-inf) = w(-0 - i inf), signed as erfcx(-1e200) and scipy
        assert _bits(np.array(core.erfcx_c(-np.inf, 11))) == _bits(np.array(core.erfcx_c(-1e200, 11)))
        assert _bits(np.array(core.erfcx_c(-np.inf, 11))) == _bits(np.array(complex(np.inf, -0.0)))
        got = core.erfcx_c(complex(-np.inf, -0.0), 11)
        assert _bits(np.array(got)) == _bits(np.array(complex(np.inf, 0.0)))

    def test_across_block_edge(self):
        # the limit at index _BLOCK leaves every other point as it is alone
        base = np.array([
            1.5 - 0.5j, -2.0 + 0.3j, complex(-0.0, -30.0), 0.1 + 0.1j, -7.0 - 2.0j,
            complex(0.0, np.inf), 100.0 + 1.0j, complex(-0.0, -np.inf),
        ])
        z = base[np.arange(2 * core._BLOCK + 3) % base.size]
        z[core._BLOCK] = complex(-0.0, -np.inf)
        alone = np.array([core.w_plane(complex(v), 11) for v in base])
        want = alone[np.arange(z.size) % base.size]
        want[core._BLOCK] = complex(np.inf, -0.0)
        assert _bits(core.w_plane(z, 11)) == _bits(want)
        got = w_oracle(z)
        for k in (core._BLOCK - 1, core._BLOCK + 1):
            assert _bits(got[k].to_complex()) == _bits(w_oracle(z[k]).to_complex())
        assert got[core._BLOCK].to_complex() == complex(np.inf, -0.0)

    @pytest.mark.parametrize("f, z", [
        (core.w_plane, complex(1.0, -np.inf)),
        (core.w_plane, complex(-np.inf, -np.inf)),
        (core.w_plane, np.array([complex(0.0, -np.inf), complex(1e-300, -np.inf)])),
        (w_oracle, complex(1.0, -np.inf)),
    ])
    def test_off_axis_refused(self, f, z):
        with pytest.raises(DomainError):
            f(z)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8).tobytes()


class TestBlocks:
    """The evaluation runs in blocks of core._BLOCK points; no block edge
    may change a result."""

    B = core._BLOCK

    @staticmethod
    def _mixed(n, seed=0):
        rng = np.random.default_rng(seed)
        mag = 10.0 ** rng.uniform(-3, 1.5, n)
        return mag * np.exp(1j * rng.uniform(-np.pi, np.pi, n))

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_sizes_match_pieces(self, n):
        z = self._mixed(n)
        out = core.w_plane(z, 11)
        assert out.shape == z.shape
        cuts = [0, 1, self.B - 1, self.B + 2, n]
        pieces = [core.w_plane(z[a:b], 11) for a, b in zip(cuts, cuts[1:]) if a < b]
        assert _bits(out) == _bits(np.concatenate([np.empty(0, complex)] + pieces))
        q = np.abs(z.real) + 1j * np.abs(z.imag)
        scalars = [core.w_plane(complex(v), 11) for v in q[:: max(1, n // 50)]]
        assert _bits(core.w_plane(q, 11)[:: max(1, n // 50)]) == _bits(np.array(scalars))

    def test_quadrants_interleaved_across_edge(self):
        base = np.array([1.5 + 0.7j, 3.3 + 0.1j, 0.2 + 8.0j, 7.0 + 2.0j])
        signs = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
        k = np.arange(2 * self.B + 3)
        z = base[(k // 4) % 4] * (1.0 + 1e-3 * k / self.B)
        z = z.real * signs[k % 4].real + 1j * z.imag * signs[k % 4].imag
        out = core.w_plane(z, 11)
        edge = slice(self.B - 8, self.B + 8)
        pieces = np.concatenate([core.w_plane(z[: self.B], 11), core.w_plane(z[self.B :], 11)])
        assert _bits(out) == _bits(pieces)
        singles = np.array([core.w_plane(complex(v), 11) for v in z[edge]])
        assert _bits(out[edge]) == _bits(singles)

    @pytest.mark.parametrize("f", [
        core.erfc_c, core.erf_c, core.erfcx_c, reference.zaghloul_eval, oracle.w_ref,
    ])
    def test_functions_match_pieces(self, f):
        # each runs a _BLOCK loop, _evaluate's or its own (zaghloul_eval, which
        # takes the first quadrant); w_ref gives a DDComplex
        z = self._mixed(2 * self.B + 3)
        if f is reference.zaghloul_eval:
            z = np.abs(z.real) + 1j * np.abs(z.imag)

        def words(v):
            if isinstance(v, DDComplex):
                return [v.re.hi, v.re.lo, v.im.hi, v.im.lo]
            return [v.real, v.imag]

        cuts = [0, 1, self.B - 1, self.B + 2, z.size]
        pieces = [words(f(z[a:b])) for a, b in zip(cuts, cuts[1:])]
        for whole, parts in zip(words(f(z)), zip(*pieces)):
            assert _bits(whole) == _bits(np.concatenate(parts))

    def test_shapes(self):
        z = self._mixed(7 * (2 * self.B // 7 + 5)).reshape(-1, 7)
        out = core.w_plane(z, 11)
        assert out.shape == z.shape
        assert _bits(out) == _bits(core.w_plane(z.ravel(), 11))
        cols = core.w_plane(np.asfortranarray(z), 11)
        assert _bits(cols) == _bits(out)
        s = core.w_plane(np.complex128(1.5 - 0.5j), 11)
        assert isinstance(s, complex)
        assert s == core.w_plane(np.array([1.5 - 0.5j]), 11)[0]
        assert core.w_plane(np.array(2.0 + 1.0j), 11) == core.w_plane(
            np.array([2.0 + 1.0j]), 11
        )[0]


_Q = 8.0 + np.linspace(0.0, 12.0, 12).reshape(3, 4) * (1 + 0.5j)  # first quadrant, |z| >= 8


@pytest.mark.parametrize("f, z, scalar", [
    (faddeeva.w, _Q, complex),
    (faddeeva.erfc, _Q, complex),
    (faddeeva.erf, _Q, complex),
    (faddeeva.erfcx, _Q, complex),
    (faddeeva.dawson, _Q.real, float),
    (lambda x: faddeeva.voigt(x, 0.5), _Q.real, float),
    (reference.cf_convergent, _Q, complex),
    (lambda z: reference.weideman_eval(z, reference.default_weideman_model()), _Q, complex),
    (reference.zaghloul_eval, _Q, complex),
], ids=["w", "erfc", "erf", "erfcx", "dawson", "voigt", "cf", "weideman", "zaghloul"])
def test_evaluator_boundary(f, z, scalar):
    """Every evaluator keeps an array's shape, gives a Python scalar for a
    0-d input and refuses a NaN component."""

    def parts(v):
        return v if isinstance(v, tuple) else (v,)

    for out, flat in zip(parts(f(z)), parts(f(z.ravel()))):
        assert out.shape == z.shape
        assert _bits(out) == _bits(flat.reshape(z.shape))
    for v in parts(f(z[1, 2])):
        assert type(v) is scalar
    with pytest.raises(DomainError):
        f(np.where(np.arange(z.size) == 5, np.nan, z.ravel()))


@pytest.mark.parametrize("f, arg", [
    (faddeeva.w, _Q), (faddeeva.erf, _Q), (faddeeva.erfc, _Q), (faddeeva.erfcx, _Q),
    (faddeeva.dawson, _Q.real), (lambda x: faddeeva.voigt(x, 0.5), _Q.real),
], ids=["w", "erf", "erfc", "erfcx", "dawson", "voigt"])
def test_validates_once(monkeypatch, f, arg):
    """Every public call checks its points once: the derived functions
    compose through the flat internals, not through the public boundary."""
    calls = []
    check = core._as_xy
    monkeypatch.setattr(core, "_as_xy", lambda z: calls.append(z) or check(z))
    f(arg)
    assert len(calls) == 1


class TestDerived:
    def test_erfc_examples(self):
        assert core.erfc_c(0j, 11) == 1.0 + 0j
        # frozen from the extended-precision oracle: e^{-1} w_oracle(i)
        assert abs(core.erfc_c(1 + 0j, 11) - 0.15729920705028513) < 3e-16
        s = core.erfc_c(0.7 + 0.3j, 11) + core.erfc_c(-0.7 - 0.3j, 11)
        assert abs(s - 2.0) < 4e-15

    def test_erfc_components_vs_oracle(self):
        # Re z < 0 goes through erfc(z) = 2 - erfc(-z); each component is
        # checked relative to the larger of itself and |erfc(zr)| at the
        # point zr = +-z with Re zr >= 0 that is evaluated, because a
        # component crossing zero keeps an error of a few ulp of |erfc(zr)|
        rng = np.random.default_rng(5)
        z = rng.uniform(-6, 6, 2000) + 1j * rng.uniform(-3, 3, 2000)
        v = core.erfc_c(z, 11)
        ref = erfc_oracle(z).to_complex()
        scale = np.abs(erfc_oracle(np.where(z.real < 0, -z, z)).to_complex())
        for part in (np.real, np.imag):
            err = np.abs(part(v) - part(ref)) / (np.abs(part(ref)) + scale)
            assert np.max(err) < 1e-14, part.__name__
        assert core.erfc_c(-27.0, 11) == core.erfc_c(-30.0, 11) == 2.0

    def test_erf_examples(self):
        assert core.erf_c(0j, 11) == 0j
        assert core.erf_c(-0.3j, 11) == -core.erf_c(0.3j, 11)
        assert abs(core.erf_c(1 + 0j, 11) - 0.84270079294971487) < 3e-16

    def test_infinite_arguments(self):
        # iz is formed by parts: 1j * z would make 0 * inf, a NaN
        assert core.erfc_c(np.inf, 11) == 0j
        assert core.erfc_c(-np.inf, 11) == 2.0
        assert core.erf_c(np.inf, 11) == 1.0 and core.erf_c(-np.inf, 11) == -1.0
        assert core.erfcx_c(np.inf, 11) == 0j
        # x + i inf is formed by parts too: w there is 0
        assert core.voigt_kl(1.0, np.inf, 11) == (0.0, 0.0)
        k, l = core.voigt_kl(np.array([-np.inf, -2.0, 0.0, 3.0]), np.inf, 11)
        assert not np.any(k) and not np.any(l)
        # erfcx(-inf) is w's limit at -0 - i inf (TestMinusIInf); off the real
        # axis of erfcx e^{-z^2} has an infinite modulus and no phase there
        assert core.erfcx_c(-np.inf, 11) == np.inf
        assert core.erfcx_c(complex(-np.inf, -0.0), 11) == np.inf
        with pytest.raises(DomainError):
            core.erfcx_c(complex(-np.inf, 1.0), 11)

    def test_imag_axis(self):
        # erfc(iy) = 1 - i erfi(y) has real part 1 also where erfi(y)
        # overflows and e^{-z^2} w(iz) is inf * 0, and erfi(+-inf) = +-inf
        z = np.array([
            3j, 26j, 27j, 30j, 1e10j, complex(-0.0, -30.0), -3j,
            complex(0.0, np.inf), complex(-0.0, np.inf),
            complex(0.0, -np.inf), complex(-0.0, -np.inf),
        ])
        got = core.erfc_c(z, 11)
        assert np.all(got.real == 1.0)
        assert np.array_equal(got.imag[[2, 3, 4, 7, 8]], [-np.inf] * 5)
        assert np.array_equal(got.imag[[5, 9, 10]], [np.inf] * 3)
        for zs in (30j, -30j, *z[7:]):
            assert core.erfc_c(zs, 11) == complex(1.0, -np.sign(zs.imag) * np.inf), zs
            assert core.erf_c(zs, 11) == complex(0.0, np.sign(zs.imag) * np.inf), zs
        # erf(iy) = i erfi(y) keeps the signed zero Re z, as erf is odd
        z = np.concatenate((z, [complex(-0.0, 3.0), -0.0, 0.0]))
        re = core.erf_c(z, 11).real
        assert np.all(re == 0.0)
        assert np.array_equal(np.signbit(re), np.signbit(z.real))
        for zs in z[-3:]:
            assert np.signbit(core.erf_c(zs, 11).real) == np.signbit(zs.real), zs
        assert abs(core.erf_c(complex(-0.0, 3.0), 11).imag - 1629.9946226015657) < 1e-12

    def test_erfcx_examples(self):
        assert core.erfcx_c(0j, 11) == 1.0 + 0j
        assert abs(core.erfcx_c(10 + 0j, 11) - 0.056140992743822586) < 2e-16
        y = np.linspace(0.0, 10.0, 101)
        v = core.erfcx_c(y + 0j, 11)
        assert np.all(v.real > 0.0)
        assert np.max(np.abs(v.imag)) <= 2e-15

    def test_dawson(self):
        assert core.dawson_real(0.0, 11) == 0.0
        assert core.dawson_real(-1.3, 11) == -core.dawson_real(1.3, 11)
        assert abs(core.dawson_real(1.0, 11) - 0.53807950691276842) < 3e-16

    def test_voigt(self):
        k, l = core.voigt_kl(0.0, 1.0, 11)
        assert k == pytest.approx(0.42758357615580700, abs=3e-16)
        assert l == 0.0
        k1, l1 = core.voigt_kl(2.0, 0.5, 11)
        k2, l2 = core.voigt_kl(-2.0, 0.5, 11)
        assert k1 == k2 and l1 == -l2
        ref = oracle_c(1 + 1j)
        k3, l3 = core.voigt_kl(1.0, 1.0, 11)
        assert abs(k3 - ref.real) < 2e-15 and abs(l3 - ref.imag) < 2e-15

    def test_voigt_domain(self):
        with pytest.raises(ParameterError):
            core.voigt_kl(1.0, 0.0, 11)

    @pytest.mark.parametrize("name, args", [
        ("voigt", (np.array([1 + 5j]), 1.0)),
        ("voigt", (1.0, np.array([1 + 5j]))),
        ("voigt", (1 + 1j, 1)),
        ("voigt", (1.0, [0.5 + 0j])),
        ("dawson", (np.array([1, 2j]),)),
        ("dawson", (1 + 1j,)),
        ("dawson", (np.complex64(1),)),
    ])
    def test_complex_arguments_refused(self, name, args):
        # a cast to float64 would drop the imaginary part, and dawson(1 + 1j)
        # or voigt(1 + 1j, 1) would fail in the cast with a bare TypeError
        with pytest.raises(DomainError, match=name):
            getattr(faddeeva, name)(*args)


class TestRealAxisIdentity:
    def test_exp_identity_to_30(self):
        x = np.arange(0.0, 30.0 + 1e-9, 0.01)
        w = np.asarray(core.w_plane(x + 0j, 11))
        err = np.abs(w.real - np.exp(-x * x))
        assert np.max(err) <= abs_bound(11)


class TestExponentialDecay:
    def test_error_ratio(self):
        rng = np.random.default_rng(3)
        z = 10.0 ** rng.uniform(-3, 1, 400) * np.exp(1j * rng.uniform(0, np.pi / 2, 400))
        ref = oracle_c(z)
        prev = None
        for n in range(0, 10):
            e = float(np.max(np.abs(core.w_plane(z, n) - ref)))
            if prev is not None and prev > 1e-13:
                assert e / prev <= math.exp(-math.pi) * 1.5
            prev = e
