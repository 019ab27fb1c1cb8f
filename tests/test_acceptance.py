"""Acceptance gate: the eight headline criteria, one pass/fail line each.

Criterion 7 (oracle certification) runs first; everything downstream trusts
the order-20 double-double oracle only after it has been certified against
the independent quadrature oracle (`certification.py`). Criterion 1 sweeps
both of the paper's test sets: the full polar grid and every 64th point of
the cartesian grid, and the whole cartesian grid under the opt-in ``slow``
marker (``pytest -m slow``).
"""

import math

import numpy as np
import pytest

from faddeeva import bench, core
from faddeeva.bounds import abs_bound, constants, rel_bound
from faddeeva.oracle import ORACLE_N, w_oracle, w_ref

from certification import w_quadrature
from conftest import ACCEPTANCE_RESULTS


def record(ok: bool, label: str, detail: str):
    ACCEPTANCE_RESULTS.append(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# Shared heavy data
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def polar_grid():
    return bench.gen_polar_grid(bench.GridSpec())


@pytest.fixture(scope="session")
def polar_table():
    """Accuracy-table rows over the full 1,602,801-point polar grid, by method.

    trap(0)..trap(11), weideman(40) and zaghloul(0.5,38) against the order-20
    double-double oracle, in one oracle pass over the grid.
    """
    methods = [f"trap({n})" for n in range(12)] + ["weideman(40)", "zaghloul(0.5,38)"]
    return {row.method: row for row in bench.accuracy_table(methods)}


@pytest.fixture(scope="session")
def binary64_sweep(polar_table):
    """Max abs/rel error of w_N for N = 0..11 over the full polar grid."""
    return {n: (polar_table[f"trap({n})"].max_abs, polar_table[f"trap({n})"].max_rel)
            for n in range(12)}


# ---------------------------------------------------------------------------
# Criterion 7 first: certify the oracle
# ---------------------------------------------------------------------------

class TestCriterion7OracleCertification:
    def test_oracle_certification(self):
        rng = np.random.default_rng(2024)
        x = rng.uniform(-8.0, 8.0, 100)
        y = 10.0 ** rng.uniform(-1.0, 1.0, 100)  # Im in [0.1, 10]
        worst = 0.0
        for zj in x + 1j * y:
            q = w_quadrature(zj)
            r = w_oracle(zj)
            dr = r.re - q.re
            di = r.im - q.im
            d = math.hypot(dr.hi + dr.lo, di.hi + di.lo)
            worst = max(worst, d / math.hypot(q.re.hi, q.im.hi))
        ok_quad = worst <= 1e-25

        rng = np.random.default_rng(7)
        r = 10.0 ** rng.uniform(-5, 3, 2000)
        th = rng.uniform(0.0, np.pi / 2, 2000)
        z = r * np.exp(1j * th)
        a = w_ref(z, ORACLE_N - 1)
        b = w_ref(z, ORACLE_N)
        dr = a.re - b.re
        di = a.im - b.im
        d19 = float(np.max(np.hypot(dr.hi + dr.lo, di.hi + di.lo)))
        ok_19 = d19 <= 8e-27

        record(
            ok_quad and ok_19,
            "criterion 7 (oracle certification)",
            f"quadrature rel diff {worst:.2e} <= 1e-25; N=19 vs N=20 {d19:.2e} <= 8e-27",
        )


class TestCriterion1DefaultOrderAccuracy:
    def test_n11_full_grid(self, binary64_sweep):
        a, r = binary64_sweep[11]
        record(
            a < 2e-15 and r < 2e-15,
            "criterion 1 (N=11 accuracy, full polar grid)",
            f"max abs {a:.3e} < 2e-15; max rel {r:.3e} < 2e-15",
        )

    def test_n11_cartesian_subsample(self):
        # the paper's second test set, the 4001^2 cartesian grid, 1 point in
        # 64 in gen_cart_grid's order (x outer, y inner), built from the axis
        # so that the 256 MB grid is never formed
        spec = bench.GridSpec(kind="cartesian")
        axis = spec.x_min + spec.step * np.arange(spec._axis_count())
        k = np.arange(0, axis.size ** 2, 64)
        z = axis[k // axis.size] + 1j * axis[k % axis.size]
        [(a, ai, r, ri)] = bench._max_errors(z, [(lambda v: core.w_plane(v, 11), None)])
        record(
            a < 2e-15 and r < 2e-15,
            f"criterion 1 (N=11 accuracy, cartesian grid 1-in-64, {z.size:,} pts)",
            f"max abs {a:.3e} at {ai:.4g} < 2e-15; max rel {r:.3e} at {ri:.4g} < 2e-15",
        )

    @pytest.mark.slow
    def test_n11_cartesian_full_grid(self):
        # all 16,008,001 points: about 80 s and 300 MiB, so deselected by default
        z = bench.gen_cart_grid(bench.GridSpec(kind="cartesian"))
        [(a, ai, r, ri)] = bench._max_errors(z, [(lambda v: core.w_plane(v, 11), None)])
        record(
            a < 2e-15 and r < 2e-15,
            f"criterion 1 (N=11 accuracy, full cartesian grid, {z.size:,} pts)",
            f"max abs {a:.3e} at {ai:.4g} < 2e-15; max rel {r:.3e} at {ri:.4g} < 2e-15",
        )


class TestIndependentWitnesses:
    """w on the polar grid against references that share none of its code.

    The oracle runs w's own dispatch, masks, corrections and reflection, so
    criterion 1 cannot see a fault the two arithmetics share; scipy's wofz
    (S. G. Johnson's Faddeeva Package) and mpmath can."""

    def test_scipy_full_polar_grid(self, polar_grid):
        sp = pytest.importorskip("scipy.special")
        tol = rel_bound(11) + 1e-13
        want = sp.wofz(polar_grid)
        rel = np.abs(core.w_plane(polar_grid, 11) - want) / np.abs(want)
        i = int(np.argmax(rel))
        record(
            rel[i] <= tol,
            f"witness (scipy wofz, full polar grid, {polar_grid.size:,} pts)",
            f"max rel diff {rel[i]:.3e} at {polar_grid[i]:.4g} <= {tol:.3e}",
        )

    def test_mpmath_polar_subsample(self, polar_grid):
        mp = pytest.importorskip("mpmath")
        z = polar_grid[::1000]
        got = core.w_plane(z, 11)
        dps = 40

        def reference(zj, digits):
            with mp.workdps(digits):
                v = mp.mpc(zj)
                return mp.exp(-v * v) * mp.erfc(-1j * v)

        aerr = np.empty(z.size)
        rerr = np.empty(z.size)
        confirm = 0.0
        for j, zj in enumerate(z):
            ref, check = reference(zj, dps), reference(zj, 2 * dps)
            with mp.workdps(2 * dps):
                confirm = max(confirm, float(abs(ref - check) / abs(check)))
                aerr[j] = float(abs(mp.mpc(got[j]) - check))
                rerr[j] = float(aerr[j] / abs(check))
        ai, ri = int(np.argmax(aerr)), int(np.argmax(rerr))
        record(
            aerr[ai] < 2e-15 and rerr[ri] < 2e-15 and confirm < 1e-30,
            f"witness (mpmath, polar grid 1-in-1000, {z.size:,} pts)",
            f"max abs {aerr[ai]:.3e} at {z[ai]:.4g} < 2e-15; "
            f"max rel {rerr[ri]:.3e} at {z[ri]:.4g} < 2e-15; "
            f"{dps} vs {2 * dps} digits {confirm:.1e} < 1e-30",
        )


class TestCriterion2BoundSuite:
    def test_binary64_orders(self, binary64_sweep):
        floor = 4e-15
        worst = ""
        ok = True
        for n, (a, r) in binary64_sweep.items():
            if not (a <= abs_bound(n) + floor and r <= rel_bound(n) + floor):
                ok = False
                worst += f" n={n}"
        record(
            ok,
            "criterion 2a (theorem bounds, N=0..11 binary64)",
            "all orders within C1*e^{-pi N} / C2*sqrt(N+1)*e^{-pi N} + 4e-15"
            + (f"; violations:{worst}" if worst else ""),
        )

    def test_xprec_orders(self):
        floor = 1e-26
        ok = True
        detail = []
        # every 16th point of the polar grid
        for rec in bench.error_sweep(range(12, 20)):
            a, r, n = rec.max_abs_err, rec.max_rel_err, rec.n
            if not (a <= abs_bound(n) + floor and r <= rel_bound(n) + floor):
                ok = False
                detail.append(f"n={n}: abs {a:.2e} vs {abs_bound(n):.2e}")
        record(
            ok,
            "criterion 2b (theorem bounds, N=12..19 double-double)",
            "all orders within bounds + 1e-26" + ("; " + "; ".join(detail) if detail else ""),
        )


class TestCriterion3Slope:
    def test_figure1_slope(self, binary64_sweep):
        ns = []
        logs = []
        for n, (a, _r) in sorted(binary64_sweep.items()):
            if a > 1e-13:  # pre-floor segment
                ns.append(n)
                logs.append(math.log10(a))
        slope = np.polyfit(ns, logs, 1)[0]
        target = -math.pi / math.log(10)
        ok = abs(slope - target) <= 0.05 * abs(target)
        record(
            ok,
            "criterion 3 (exponential decay slope)",
            f"fit slope {slope:.4f} vs -pi/ln10 = {target:.4f} (+-5%), orders {ns[0]}..{ns[-1]}",
        )


class TestCriterion4Constants:
    def test_constants_and_n20_bounds(self):
        c = constants()
        targets = [
            (c.c_a, 4.934),
            (c.c_r, 60.77),
            (c.c_star, 1.0234),
            (c.big_c1, 0.6692),
            (c.big_c2, 3.971),
        ]
        ok = all(abs(v - t) <= 5e-4 * abs(t) for v, t in targets)
        ok = ok and 3.3e-28 <= abs_bound(20) <= 3.5e-28
        ok = ok and 9.2e-27 <= rel_bound(20) <= 9.4e-27
        record(
            ok,
            "criterion 4 (bound constants)",
            f"c_a={c.c_a:.4f}, c_r={c.c_r:.2f}, c*={c.c_star:.4f}, "
            f"C1={c.big_c1:.4f}, C2={c.big_c2:.3f}; "
            f"abs_bound(20)={abs_bound(20):.3e}, rel_bound(20)={rel_bound(20):.3e}",
        )


class TestCriterion5AccuracyTable:
    def test_table_rows(self, polar_table):
        trap_abs = polar_table["trap(11)"].max_abs
        weid_rel = polar_table["weideman(40)"].max_rel
        zag_rel = polar_table["zaghloul(0.5,38)"].max_rel

        ok = trap_abs <= 2.4e-15 and weid_rel <= 3e-15 and zag_rel <= 5e-13
        record(
            ok,
            "criterion 5 (accuracy table rows)",
            f"trap(11) abs {trap_abs:.3e} <= 2.4e-15; "
            f"weideman(40) rel {weid_rel:.3e} <= 3e-15; "
            f"zaghloul(1/2,38) rel {zag_rel:.3e} <= 5e-13",
        )

    def test_timing_rows_reported(self, capsys):
        # informational only, never gated
        spec = bench.GridSpec(p_step=0.096, theta_count=51)  # ~6.4k points
        lines = []
        methods = ["trap(11)", "weideman(40)", "cf(9)", "zaghloul(0.5,38)"]
        for rec in bench.timing_run(methods, spec, reps=5):
            lines.append(f"{rec.method}: {rec.mean_seconds*1e3:.2f} ms (+-{rec.sd_seconds*1e3:.2f})")
        ACCEPTANCE_RESULTS.append("INFO  criterion 5 timings (not gated): " + "; ".join(lines))


class TestCriterion6Identities:
    def test_identity_suite(self, polar_grid):
        p11 = core._params(11)
        M, MM, MT = core.BranchTag.M, core.BranchTag.MM, core.BranchTag.MT
        c1 = abs_bound(11)
        msgs = []

        ok_origin = core.w_plane(0j, 11) == 1.0 + 0j
        msgs.append(f"w(0)=1 {'exact' if ok_origin else 'VIOLATED'}")

        x = np.arange(0.0, 30.0 + 1e-9, 0.01)
        wreal = np.asarray(core.w_plane(x + 0j, 11))
        gauss_err = float(np.max(np.abs(wreal.real - np.exp(-x * x))))
        ok_gauss = gauss_err <= c1
        msgs.append(f"Re w(x) vs e^-x^2 {gauss_err:.1e}")

        rng = np.random.default_rng(31)
        zs = rng.uniform(0, 20, 5000) + 1j * rng.uniform(0, 20, 5000)
        # the imaginary axis, where w is real: Im w is the zero with the sign
        # of Re z, which == cannot tell from the other zero
        axis_y = [0.0, 0.05, 2.0, 10.0, 100.0, 1e25, -0.05, -2.0, -10.0]
        axis = np.array([complex(x, y) for x in (0.0, -0.0) for y in axis_y])
        # and where Im w underflows
        tiny = np.array([5e-324 + 2j, -5e-324 + 30j, 1e-310 + 100j])
        zs = np.concatenate([zs, axis, tiny])
        ok_conj = np.array_equal(
            np.asarray(core.w_plane(-np.conj(zs), 11)).view(np.uint64),
            np.conj(core.w_plane(zs, 11)).view(np.uint64),
        )
        msgs.append("conjugate symmetry " + ("bit-exact" if ok_conj else "VIOLATED"))

        # branch-boundary continuity at 1000 points where two rules coexist
        tol = 2 * c1 + 8e-15
        h = p11.h
        k = rng.integers(1, 40, 500)
        u = rng.uniform(0.25, 0.75, 500)
        xb = (k + u) * h  # phase inside the trapezoidal window
        yb = rng.uniform(0.0, 1.0, 500) * np.minimum(xb, np.pi / h) * 0.99
        d1 = np.abs(core._rule(xb, yb, p11, MT) - core._rule(xb, yb, p11, MM))
        # and along the diagonal y = x = t (midpoint vs plain-sum handoff)
        t = np.linspace(np.pi / h + 0.1, 30.0, 500)
        d2 = np.abs(core._rule(t, t, p11, M) - core._rule(t, t, p11, MM))
        cont = float(max(np.max(d1), np.max(d2)))
        ok_cont = cont <= tol
        msgs.append(f"branch continuity {cont:.1e} <= {tol:.1e}")

        w11 = core.w_plane(polar_grid, 11)
        lb = 1.0 / (1.0 + math.sqrt(math.pi) * np.abs(polar_grid)) - c1
        ok_lb = bool(np.all(np.abs(w11) >= lb))
        msgs.append("lower bound " + ("holds" if ok_lb else "VIOLATED"))

        ok = ok_origin and ok_gauss and ok_conj and ok_cont and ok_lb
        record(ok, "criterion 6 (identity/property suite)", "; ".join(msgs))


class TestCriterion8Determinism:
    def test_deterministic_and_parallel(self, tmp_path):
        spec = bench.GridSpec(p_step=0.024, theta_count=201)  # 1-in-16 style reduction
        r1 = bench.error_sweep([5, 11], spec)
        r2 = bench.error_sweep([5, 11], spec)
        r4 = bench.error_sweep([5, 11], spec, workers=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        bench.emit(r1, p1)
        bench.emit(r2, p2)
        ok_bytes = p1.read_bytes() == p2.read_bytes()
        ok_par = r1 == r4
        record(
            ok_bytes and ok_par,
            "criterion 8 (determinism)",
            f"repeated CSV byte-identical: {ok_bytes}; parallel == serial: {ok_par}",
        )
