"""Command-line interface: point evaluation, error sweeps, tables, timings.

Exit codes: 0 success, 2 parameter/usage error, 3 threshold violation when
``--check`` is passed.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import bench, bounds, core
from .errors import FaddeevaError, ParameterError

_CHECK_FLOOR_B64 = 4e-15
_CHECK_FLOOR_DD = 1e-26

# accuracy-table pass thresholds used by `table --check`
_TABLE_THRESHOLDS = {
    "trap(11)": ("max_abs", 2.4e-15),
    "weideman(40)": ("max_rel", 3e-15),
    "zaghloul(0.5,38)": ("max_rel", 5e-13),
}


#: the grid kind that reads each grid flag
_GRID_FLAGS = {
    **dict.fromkeys(("p_min", "p_max", "p_step", "theta_count"), "polar"),
    **dict.fromkeys(("x_min", "x_max", "step"), "cartesian"),
}


def _grid_from_args(args) -> bench.GridSpec:
    kw = {k: getattr(args, k) for k in _GRID_FLAGS if getattr(args, k) is not None}
    for k in kw:
        if _GRID_FLAGS[k] != args.grid:
            raise ParameterError(f"--{k.replace('_', '-')} is a {_GRID_FLAGS[k]} grid flag")
    return bench.GridSpec(kind=args.grid, **kw)


def _add_grid_options(p):
    p.add_argument("--grid", choices=["polar", "cartesian"], default="polar")
    g = p.add_argument_group("grid refinement (defaults reproduce the standard grids)")
    for k in _GRID_FLAGS:  # each flag takes the type of its GridSpec default
        g.add_argument("--" + k.replace("_", "-"), type=type(getattr(bench.GridSpec, k)))


def cmd_eval(args) -> int:
    label, fn, rated = bench.parse_method(args.method)
    z = complex(args.re, args.im)
    zs = np.atleast_1d(core._as_xy(z))  # a NaN component exits 2 before the rated check
    if not rated(zs)[0]:
        raise ParameterError(f"{label} is not rated at z = {z}")
    value = fn(zs)[0]
    print(f"w({z.real:g}{z.imag:+g}i) = {value.real:.17g} {value.imag:+.17g}i  [{label}]")
    if fn.func is core.w_plane:  # trap(n) explains its point
        n = fn.keywords["n"]
        tag = "reflection" if z.imag < 0 else core.select_branch(z, n).name
        print(f"branch = {tag}")
        print(f"abs_bound = {bounds.abs_bound(n):.6g}")
        print(f"rel_bound = {bounds.rel_bound(n):.6g} (upper half-plane)")
    return 0


def cmd_sweep(args) -> int:
    if not 0 <= args.n_min <= args.n_max <= core.N_MAX:
        raise ParameterError(f"need 0 <= n-min <= n-max <= {core.N_MAX}")
    grid = _grid_from_args(args)
    records = bench.error_sweep(range(args.n_min, args.n_max + 1), grid, workers=args.workers)
    bench.emit(records, args.out)
    print(f"wrote {len(records)} sweep records to {args.out}")
    if not args.check:
        return 0
    rc = 0
    for r in records:
        floor = _CHECK_FLOOR_B64 if r.n <= bench.BINARY64_MAX_N else _CHECK_FLOOR_DD
        if r.max_abs_err > r.bound_abs + floor or r.max_rel_err > r.bound_rel + floor:
            print(f"FAIL n={r.n}: abs {r.max_abs_err:.3e} vs {r.bound_abs:.3e}, "
                  f"rel {r.max_rel_err:.3e} vs {r.bound_rel:.3e}", file=sys.stderr)
            rc = 3
    return rc


def _methods(args) -> list[str]:
    methods = [m.strip() for m in args.methods.split(";") if m.strip()]
    if not methods:
        raise ParameterError("no methods given")
    return methods


def cmd_table(args) -> int:
    grid = _grid_from_args(args)
    rows = bench.accuracy_table(_methods(args), grid)
    bench.emit(rows, args.out)
    print(f"wrote {len(rows)} table rows to {args.out}")
    if args.check:
        rc = 0
        for row in rows:
            spec = _TABLE_THRESHOLDS.get(row.method)
            if spec is None:
                continue
            fld, thr = spec
            val = getattr(row, fld)
            if val > thr:
                print(f"FAIL {row.method}: {fld} {val:.3e} > {thr:.3e}", file=sys.stderr)
                rc = 3
        return rc
    return 0


def cmd_bench(args) -> int:
    grid = _grid_from_args(args)
    records = [bench.timing_run(m, grid, reps=args.reps) for m in _methods(args)]
    bench.emit(records, args.out)
    print(f"wrote {len(records)} timing records to {args.out}")
    return 0


def cmd_bounds(args) -> int:
    c = bounds.constants()
    print(f"c_a    = {c.c_a:.10g}")
    print(f"c_r    = {c.c_r:.10g}")
    print(f"c_star = {c.c_star:.10g}")
    print(f"C1     = {c.big_c1:.10g}")
    print(f"C2     = {c.big_c2:.10g}")
    n = args.n
    trap, trunc = bounds.component_bounds(n)
    print(f"n = {n}: h = {core.step_size(n):.10g}")
    print(f"  abs_bound = {bounds.abs_bound(n):.6e}")
    print(f"  rel_bound = {bounds.rel_bound(n):.6e}")
    print(f"  components: rule = {trap:.6e}, truncation = {trunc:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="faddeeva", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate w(z) at one point")
    # argparse takes "-1e25" and "-inf" for options; these are numbers too
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-inf$")
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, required=True)
    p.add_argument("--method", default="trap",
                   help="method spec as in table/bench, e.g. 'trap(5)' or 'cf(11)'")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="max-error sweep over a grid for a range of orders")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_grid_options(p)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--check", action="store_true",
                   help="exit 3 if any record exceeds its theoretical bound plus floor")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table", help="accuracy table for several methods")
    p.add_argument("--methods", required=True,
                   help="semicolon-separated, e.g. 'trap(11);weideman(40);cf(9);zaghloul(0.5,38)'")
    _add_grid_options(p)
    p.add_argument("--out", required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("bench", help="timing comparison over the full grid")
    p.add_argument("--reps", type=int, default=25)
    p.add_argument("--methods", default="trap(11);weideman(40);cf(9);zaghloul(0.5,38)")
    _add_grid_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bounds", help="print bound constants and curves")
    p.add_argument("--n", type=int, default=core.DEFAULT_N)
    p.set_defaults(func=cmd_bounds)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (FaddeevaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
