"""Grids, sweeps, tables, timing, serialization, and the CLI."""

import json
import subprocess
import sys

import numpy as np
import pytest

import faddeeva
from faddeeva import bench, cli
from faddeeva.bench import (
    GridSpec,
    SweepRecord,
    TimingRecord,
    accuracy_table,
    emit,
    error_sweep,
    gen_cart_grid,
    gen_polar_grid,
    parse_method,
    timing_run,
)
from faddeeva.bounds import abs_bound
from faddeeva.errors import ParameterError
from faddeeva.oracle import w_oracle
from faddeeva.reference import cf_convergent

SMALL = GridSpec(p_min=-3.0, p_max=3.0, p_step=0.05, theta_count=41)


class TestGrids:
    def test_polar_default_count(self):
        z = gen_polar_grid(GridSpec())
        assert z.size == 1_602_801

    def test_polar_corners_and_quadrant(self):
        z = gen_polar_grid(GridSpec())
        assert z[0] == 1e-6 + 0j
        assert np.all(z.real >= 0.0) and np.all(z.imag >= 0.0)
        # last point: p = 6, theta = pi/2 -> 1e6 * i
        assert z[-1].imag == pytest.approx(1e6, rel=1e-12)

    def test_cartesian_default_count(self):
        assert GridSpec(kind="cartesian")._axis_count() ** 2 == 16_008_001

    def test_cartesian_corners(self):
        spec = GridSpec(kind="cartesian", x_max=1.0, step=0.5)
        z = gen_cart_grid(spec)
        assert z[0] == 0j
        assert z[-1] == 1 + 1j
        assert z.size == 9

    def test_bad_step(self):
        with pytest.raises(ParameterError):
            gen_polar_grid(GridSpec(p_step=0.0))
        with pytest.raises(ParameterError):
            gen_cart_grid(GridSpec(kind="cartesian", step=-1.0))

    def test_empty_range(self):
        # a reversed range has no point to sweep
        with pytest.raises(ParameterError, match="p_max"):
            gen_polar_grid(GridSpec(p_min=3.0, p_max=-3.0))
        with pytest.raises(ParameterError, match="x_max"):
            gen_cart_grid(GridSpec(kind="cartesian", x_min=1.0, x_max=0.0))

    def test_kind_mismatch(self):
        with pytest.raises(ParameterError):
            gen_polar_grid(GridSpec(kind="cartesian"))
        with pytest.raises(ParameterError):
            gen_cart_grid(GridSpec(kind="polar"))


class TestErrorSweep:
    def test_records_and_bounds(self):
        recs = error_sweep([5, 11], SMALL)
        assert [r.n for r in recs] == [5, 11]
        for r in recs:
            assert 0.0 <= r.max_abs_err <= r.bound_abs + 4e-15
            assert r.max_rel_err <= r.bound_rel + 4e-15
            # argmax points lie on the grid
            z = gen_polar_grid(SMALL)
            assert r.argmax_abs in z and r.argmax_rel in z

    def test_n11_small_grid_accuracy(self):
        (rec,) = error_sweep([11], SMALL)
        assert rec.max_abs_err < 2e-15
        assert rec.max_rel_err < 2e-15

    def test_parallel_bitwise_identical(self):
        serial = error_sweep([3, 11], SMALL)
        parallel = error_sweep([3, 11], SMALL, workers=4)
        assert serial == parallel

    def test_mixed_range_equals_separate_calls(self):
        # binary64 runs the orders whose error lies above its unit roundoff
        assert abs_bound(bench.BINARY64_MAX_N) > 2.0**-53 > abs_bound(bench.BINARY64_MAX_N + 1)
        mixed = error_sweep(range(9, 15), SMALL)
        assert mixed == error_sweep(range(9, 12), SMALL) + error_sweep(range(12, 15), SMALL)

    def test_xprec_every_16th_point(self):
        (rec,) = error_sweep([14], SMALL)
        assert rec.max_abs_err <= rec.bound_abs + 1e-26
        assert rec.max_abs_err > 0.0
        assert rec.argmax_abs in bench.gen_grid(SMALL)[::16]

    def test_bad_order_refused_before_grid(self, monkeypatch):
        monkeypatch.setattr(bench, "gen_grid", lambda spec: pytest.fail("grid generated"))
        with pytest.raises(ParameterError, match="got 30"):
            error_sweep([5, 30], SMALL)

    def test_empty_n_values(self):
        with pytest.raises(ParameterError):
            error_sweep([], SMALL)


class TestMaxErrors:
    """The one reduction behind error_sweep and accuracy_table."""

    Z = np.array([1 + 1j, 2 - 1j, 1 - 30j, 0.5 + 3j])

    @staticmethod
    def near_oracle(z):
        # the oracle rounded to binary64, off by 1e-3 below the real axis
        return w_oracle(z).to_complex() + 1e-3 * (z.imag < 0)

    def test_exclusion_and_relative_domain(self, caplog):
        with np.errstate(all="ignore"):
            [(a, ai, r, ri)] = bench._max_errors(self.Z, [(self.near_oracle, None)])
        # the lower half-plane point sets the absolute maximum only
        assert a == pytest.approx(1e-3) and ai == 2 - 1j
        assert r < 1e-16 and ri in (1 + 1j, 0.5 + 3j)
        # w overflows at 1 - 30j, where the oracle has no finite value:
        # excluded and logged once
        assert [m for m in caplog.messages if "excluded" in m] == [
            "excluded 1 grid points with non-finite oracle values"
        ]

    @staticmethod
    def nan(z):
        return np.full(z.shape, complex(np.nan, np.nan))

    def test_nan_counts_as_infinite_error(self):
        with np.errstate(all="ignore"):
            [(a, ai, r, ri)] = bench._max_errors(self.Z, [(self.nan, None)])
        assert (a, ai, r, ri) == (np.inf, 1 + 1j, np.inf, 1 + 1j)

    def test_rated_points_only(self):
        seen = []

        def record(z):
            seen.append(z.copy())
            return self.near_oracle(z)

        rated = np.array([False, True, False, True])
        with np.errstate(all="ignore"):
            (_a, ai, _r, ri), none = bench._max_errors(
                self.Z, [(record, rated), (record, np.zeros(4, bool))]
            )
        assert len(seen) == 1 and np.array_equal(seen[0], self.Z[rated])
        assert ai == 2 - 1j and ri == 0.5 + 3j
        assert none == [-np.inf, 0j, -np.inf, 0j]

    def test_workers_match_serial(self, monkeypatch):
        monkeypatch.setattr(bench, "_CHUNK", 16)  # eight chunks for four workers
        z = gen_polar_grid(SMALL)[::41]
        pairs = [(lambda c: np.atleast_1d(faddeeva.w(c, n=4)), None), (self.nan, None)]
        serial = bench._max_errors(z, pairs)
        assert bench._max_errors(z, pairs, workers=4) == serial
        # every point ties at an infinite error: the first one is kept
        assert serial[1] == [np.inf, complex(z[0]), np.inf, complex(z[0])]


class TestAccuracyTable:
    def test_rows(self):
        rows = accuracy_table(["trap(11)", "cf(9)"], SMALL)
        assert rows[0].method == "trap(11)"
        assert rows[0].max_abs < 2e-15
        assert rows[1].method == "cf(9)"
        assert rows[1].max_rel < 1e-12

    def test_empty_rated_domain(self):
        tiny = GridSpec(p_min=-2.0, p_max=0.0, p_step=0.1, theta_count=5)
        with pytest.raises(ParameterError):
            accuracy_table(["cf(9)"], tiny)  # no |z| >= 8 points

    def test_no_methods(self, monkeypatch):
        # refused before the grid is built and the oracle runs over it
        monkeypatch.setattr(bench, "gen_grid", lambda spec: pytest.fail("grid generated"))
        with pytest.raises(ParameterError, match="no methods given"):
            accuracy_table([], SMALL)

    def test_unknown_method(self):
        # an unknown name, an extra argument, a malformed one or one out of
        # range: each names its spec
        for spec in ("chebyshev(5)", "trap(5,99)", "cf(11,3)", "zaghloul(0.5,38,1)",
                     "trap(x)", "zaghloul(a)", "trap(26)", "cf(0)", "weideman(30)",
                     "zaghloul(0.5,0)"):
            with pytest.raises(ParameterError) as info:
                parse_method(spec)
            assert spec in str(info.value)

    def test_omitted_arguments_take_defaults(self):
        assert parse_method("zaghloul(1)")[0] == "zaghloul(1,38)"


class TestTiming:
    def test_timing_record(self):
        tiny = GridSpec(p_min=-1.0, p_max=1.0, p_step=0.1, theta_count=11)
        (rec,) = timing_run(["trap(11)"], tiny, reps=3)
        assert isinstance(rec, TimingRecord)
        assert rec.reps == 3
        assert rec.mean_seconds > 0.0 and rec.sd_seconds >= 0.0
        assert rec.grid == tiny.digest

    def test_reps_minimum(self):
        with pytest.raises(ParameterError):
            timing_run(["trap(11)"], SMALL, reps=2)


class TestEmit:
    def test_csv_schema(self, tmp_path):
        recs = error_sweep([11], SMALL)
        path = tmp_path / "sweep.csv"
        emit(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "n,max_abs_err,max_rel_err,bound_abs,bound_rel,"
            "argmax_abs_re,argmax_abs_im,argmax_rel_re,argmax_rel_im"
        )
        # 17-significant-digit round trip
        vals = lines[1].split(",")
        assert float(vals[1]) == recs[0].max_abs_err

    def test_byte_determinism(self, tmp_path):
        recs = error_sweep([5, 11], SMALL)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(recs, p1)
        emit(recs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_mirrors_fields(self, tmp_path):
        recs = error_sweep([11], SMALL)
        path = tmp_path / "sweep.json"
        emit(recs, path)
        rows = json.loads(path.read_text())
        assert rows[0]["n"] == 11
        assert rows[0]["max_abs_err"] == recs[0].max_abs_err
        assert set(rows[0]) == {
            "n", "max_abs_err", "max_rel_err", "bound_abs", "bound_rel",
            "argmax_abs_re", "argmax_abs_im", "argmax_rel_re", "argmax_rel_im",
        }

    def test_io_failure_reports_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit([], "/no/such/dir/out.csv")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "faddeeva.cli", *args],
        capture_output=True,
        text=True,
    )


class TestCli:
    def test_eval(self):
        r = run_cli("eval", "--re", "1", "--im", "1")
        assert r.returncode == 0
        assert "0.30474420525691" in r.stdout
        assert "branch = MM" in r.stdout
        # Re z < 0 above the real axis runs the branch of |Re z| directly
        r = run_cli("eval", "--re", "-3.2", "--im", "0.1")
        assert r.returncode == 0
        assert "branch = MT" in r.stdout
        r = run_cli("eval", "--re", "1", "--im", "-1")
        assert r.returncode == 0
        assert "branch = reflection" in r.stdout

    def test_eval_far_and_negative_arguments(self):
        # negative values in exponent form and -inf are numbers, not options;
        # the far field is reported as the dispatch's fourth part
        for re_, im, tag in (("1e25", "1", "FAR"), ("-1e25", "1", "FAR"),
                             ("-inf", "1", "FAR"), ("1", "-1e-3", "reflection")):
            r = run_cli("eval", "--re", re_, "--im", im)
            assert r.returncode == 0, r.stderr
            assert f"branch = {tag}" in r.stdout

    def test_eval_other_methods(self):
        for method, label in (("weideman", "weideman(40)"), ("zaghloul", "zaghloul(0.5,38)")):
            r = run_cli("eval", "--re", "1", "--im", "1", "--method", method)
            assert r.returncode == 0, r.stderr
            assert "0.304744205" in r.stdout and f"[{label}]" in r.stdout
            assert "branch" not in r.stdout

    def test_eval_explicit_order(self):
        # the order is written in the method spec, as in table and bench
        r = run_cli("eval", "--re", "10", "--im", "1", "--method", "cf(11)")
        assert r.returncode == 0, r.stderr
        want = complex(cf_convergent(np.array([10 + 1j]), 11)[0])
        assert f"{want.real:.17g} {want.imag:+.17g}i  [cf(11)]" in r.stdout
        r = run_cli("eval", "--re", "1", "--im", "1", "--method", "trap(5)")
        assert r.returncode == 0, r.stderr
        want = complex(faddeeva.w(1 + 1j, 5))
        assert f"{want.real:.17g} {want.imag:+.17g}i  [trap(5)]" in r.stdout
        assert f"abs_bound = {abs_bound(5):.6g}" in r.stdout
        r = run_cli("eval", "--re", "1", "--im", "1", "--method", "cf", "--n", "11")
        assert r.returncode == 2 and "unrecognized arguments: --n" in r.stderr

    def test_eval_extra_spec_argument_exit_2(self):
        r = run_cli("eval", "--re", "1", "--im", "1", "--method", "trap(5,99)")
        assert r.returncode == 2 and "trap(5,99)" in r.stderr

    def test_eval_unrated(self):
        r = run_cli("eval", "--re", "1", "--im", "1", "--method", "cf")
        assert r.returncode == 2

    @pytest.mark.parametrize("method", ["trap", "weideman", "cf", "zaghloul"])
    def test_eval_nan_exit_2(self, method, capsys):
        # a NaN component is refused alike by every method, before its rated check
        for re_, im in (("nan", "20"), ("20", "nan")):
            assert cli.main(["eval", "--re", re_, "--im", im, "--method", method]) == 2
            assert "NaN component" in capsys.readouterr().err

    def test_bounds(self):
        r = run_cli("bounds", "--n", "11")
        assert r.returncode == 0
        assert "4.933826788" in r.stdout and "0.6691903304" in r.stdout

    @pytest.mark.parametrize("n", ["26", "-1"])
    def test_bounds_bad_order_exit_2(self, n):
        # the order is refused before any constant is printed
        r = run_cli("bounds", "--n", n)
        assert r.returncode == 2 and "order" in r.stderr
        assert r.stdout == ""

    SMALL_FLAGS = ("--p-min", "-3", "--p-max", "3", "--p-step", "0.05", "--theta-count", "41")

    def test_sweep_check_ok(self, tmp_path):
        out = tmp_path / "s.csv"
        r = run_cli(
            "sweep", "--n-min", "10", "--n-max", "11",
            "--out", str(out), "--check", *self.SMALL_FLAGS,
        )
        assert r.returncode == 0, r.stderr
        assert out.exists()

    def test_sweep_json_output(self, tmp_path):
        out = tmp_path / "s.json"
        r = run_cli("sweep", "--n-min", "11", "--n-max", "11", "--out", str(out), *self.SMALL_FLAGS)
        assert r.returncode == 0
        rows = json.loads(out.read_text())
        assert rows[0]["n"] == 11

    def test_table_check(self, tmp_path):
        out = tmp_path / "t.csv"
        r = run_cli("table", "--methods", "trap(11);weideman(40)",
                    "--out", str(out), "--check", *self.SMALL_FLAGS)
        assert r.returncode == 0, r.stderr

    def test_sweep_check_fails(self, tmp_path, monkeypatch, capsys):
        # no binary64 record stays within its bound plus a negative floor;
        # the double-double order 12 is held to its own floor
        monkeypatch.setattr(cli, "_CHECK_FLOOR_B64", -1.0)
        out = tmp_path / "s.csv"
        rc = cli.main(["sweep", "--n-min", "11", "--n-max", "12",
                       "--out", str(out), "--check", *self.SMALL_FLAGS])
        assert rc == 3
        err = capsys.readouterr().err
        assert "FAIL n=11: abs " in err and "n=12" not in err
        assert out.exists()

    def test_table_check_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_TABLE_THRESHOLDS", {"trap(11)": ("max_abs", 0.0)})
        out = tmp_path / "t.csv"
        rc = cli.main(["table", "--methods", "trap(11);weideman(40)",
                       "--out", str(out), "--check", *self.SMALL_FLAGS])
        assert rc == 3
        err = capsys.readouterr().err
        assert "FAIL trap(11): max_abs " in err and "> 0.000e+00" in err
        assert "weideman" not in err

    def test_bench_timing(self, tmp_path):
        out = tmp_path / "b.csv"
        r = run_cli("bench", "--reps", "3", "--methods", "trap(11)",
                    "--out", str(out), "--p-min", "-1", "--p-max", "1",
                    "--p-step", "0.1", "--theta-count", "11")
        assert r.returncode == 0, r.stderr
        assert "mean_seconds" in out.read_text()

    @pytest.mark.parametrize("command", ["table", "bench"])
    def test_empty_methods_exit_2(self, tmp_path, command):
        out = tmp_path / "x.csv"
        r = run_cli(command, "--methods", "", "--out", str(out))
        assert r.returncode == 2
        assert "no methods given" in r.stderr
        assert not out.exists()

    def test_bench_bad_spec_refused_before_timing(self, tmp_path, monkeypatch, capsys):
        # every spec is parsed before the grid is built, let alone timed
        monkeypatch.setattr(bench, "gen_grid", lambda spec: pytest.fail("grid generated"))
        out = tmp_path / "b.csv"
        for command, bad in (("bench", "trap(x)"), ("bench", "trap(26)"), ("table", "cf(0)")):
            rc = cli.main([command, "--methods", f"trap(11);{bad}", "--out", str(out)])
            assert rc == 2
            assert bad in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command, runner", [
        (["sweep", "--n-min", "3", "--n-max", "3"], "error_sweep"),
        (["table", "--methods", "trap(11)"], "accuracy_table"),
        (["bench", "--methods", "trap(11)"], "timing_run"),
    ], ids=["sweep", "table", "bench"])
    def test_unwritable_out_refused_before_run(self, command, runner, monkeypatch, capsys):
        monkeypatch.setattr(bench, runner, lambda *a, **k: pytest.fail(f"{runner} ran"))
        assert cli.main([*command, "--out", "/no/such/dir/x.csv"]) == 2
        assert "/no/such/dir/x.csv" in capsys.readouterr().err

    def test_bad_params_exit_2(self, tmp_path):
        r = run_cli("sweep", "--n-min", "5", "--n-max", "3", "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 2
        # an order above N_MAX is refused before the binary64 orders' pass
        r = run_cli("sweep", "--n-min", "0", "--n-max", "26", "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 2 and "n-max <= 25" in r.stderr

    def test_sweep_bad_workers_exit_2(self, tmp_path):
        # a worker count below 1 is refused before the grid is built, not
        # taken for a serial run
        out = tmp_path / "x.csv"
        for workers in ("0", "-4"):
            r = run_cli("sweep", "--n-min", "3", "--n-max", "3", "--workers", workers,
                        "--out", str(out))
            assert r.returncode == 2 and f"workers must be at least 1, got {workers}" in r.stderr
        assert not out.exists()

    def test_unwritable_out_exit_2(self, capsys):
        rc = cli.main(["sweep", "--n-min", "3", "--n-max", "3", "--p-step", "0.5",
                       "--theta-count", "9", "--out", "/no/such/dir/x.csv"])
        assert rc == 2
        assert "/no/such/dir/x.csv" in capsys.readouterr().err

    def test_empty_grid_exit_2(self, tmp_path, capsys):
        # a reversed range is an error, not a record of max_abs_err = -inf
        out = tmp_path / "s.csv"
        rc = cli.main(["sweep", "--n-min", "11", "--n-max", "11", "--p-min", "3",
                       "--p-max", "-3", "--out", str(out), "--check"])
        assert rc == 2
        assert "p_max >= p_min" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_flag_of_other_kind_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = cli.main(["sweep", "--n-min", "11", "--n-max", "11", "--p-step", "0.5",
                       "--theta-count", "9", "--step", "0.1", "--out", str(out)])
        assert rc == 2
        assert "--step is a cartesian grid flag" in capsys.readouterr().err
        assert not out.exists()
        # a polar flag with the cartesian grid, checked without sweeping it
        args = cli.build_parser().parse_args(
            ["sweep", "--n-min", "11", "--n-max", "11", "--grid", "cartesian",
             "--p-step", "0.5", "--out", str(out)])
        with pytest.raises(ParameterError, match="--p-step is a polar grid flag"):
            cli._grid_from_args(args)


