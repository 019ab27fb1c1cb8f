"""Benchmark harness: test grids, error sweeps, accuracy tables, timings, I/O.

The default grids reproduce the two standard test sets: a first-quadrant
polar grid of 2001 x 801 = 1,602,801 points ``z = 10^p e^{i theta}`` and a
cartesian grid of 4001^2 = 16,008,001 points with ``x, y in [0, 10]``.
Error sweeps compare an evaluator against the extended-precision oracle and
attach the theoretical error envelopes for each order.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import core
from .bounds import abs_bound, rel_bound
from .ddouble import DD, DDComplex
from .errors import ParameterError
from .oracle import ORACLE_N, w_oracle, w_ref

__all__ = [
    "GridSpec",
    "SweepRecord",
    "TimingRecord",
    "gen_polar_grid",
    "gen_cart_grid",
    "error_sweep",
    "accuracy_table",
    "timing_run",
    "emit",
]

log = logging.getLogger(__name__)

_CHUNK = 65536


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Description of a test grid.

    ``kind`` is "polar" (z = 10^p e^{i theta}, p outer) or "cartesian"
    (z = x + iy, x outer, same range/step for y).
    """

    kind: str = "polar"
    # polar parameters
    p_min: float = -6.0
    p_max: float = 6.0
    p_step: float = 0.006
    theta_count: int = 801
    # cartesian parameters
    x_min: float = 0.0
    x_max: float = 10.0
    step: float = 0.0025

    def __post_init__(self):
        if self.kind not in ("polar", "cartesian"):
            raise ParameterError(f"unknown grid kind {self.kind!r}")

    @property
    def count(self) -> int:
        if self.kind == "polar":
            return self._p_count() * self.theta_count
        n = self._axis_count()
        return n * n

    def _p_count(self) -> int:
        if self.p_step <= 0.0:
            raise ParameterError("p_step must be positive")
        return int(round((self.p_max - self.p_min) / self.p_step)) + 1

    def _axis_count(self) -> int:
        if self.step <= 0.0:
            raise ParameterError("step must be positive")
        return int(round((self.x_max - self.x_min) / self.step)) + 1

    @property
    def digest(self) -> str:
        if self.kind == "polar":
            return (
                f"polar[p={self.p_min:g}:{self.p_step:g}:{self.p_max:g},"
                f"theta_count={self.theta_count}]"
            )
        return f"cartesian[{self.x_min:g}:{self.step:g}:{self.x_max:g}]^2"


def gen_polar_grid(spec: GridSpec = GridSpec()) -> np.ndarray:
    """First-quadrant polar grid, decade-exponent outer, angle inner."""
    if spec.kind != "polar":
        raise ParameterError("spec.kind must be 'polar'")
    if spec.theta_count < 2:
        raise ParameterError("theta_count must be >= 2")
    p = spec.p_min + spec.p_step * np.arange(spec._p_count())
    theta = (np.pi / 2.0) * np.arange(spec.theta_count) / (spec.theta_count - 1)
    z = np.power(10.0, p)[:, None] * np.exp(1j * theta)[None, :]
    return z.ravel()


def gen_cart_grid(spec: GridSpec) -> np.ndarray:
    """Square cartesian grid, x outer, y inner."""
    if spec.kind != "cartesian":
        raise ParameterError("spec.kind must be 'cartesian'")
    x = spec.x_min + spec.step * np.arange(spec._axis_count())
    z = x[:, None] + 1j * x[None, :]
    return z.ravel()


def gen_grid(spec: GridSpec) -> np.ndarray:
    """Dispatch on spec.kind."""
    return gen_polar_grid(spec) if spec.kind == "polar" else gen_cart_grid(spec)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    """Error summary for one evaluator order over one grid."""

    n: int
    max_abs_err: float
    max_rel_err: float
    bound_abs: float
    bound_rel: float
    argmax_abs: complex
    argmax_rel: complex


@dataclass(frozen=True)
class TimingRecord:
    """Wall-clock summary of repeated full-grid evaluations."""

    method: str
    mean_seconds: float
    sd_seconds: float
    reps: int
    grid: str


@dataclass(frozen=True)
class TableRecord:
    """Accuracy-table row: errors vs the oracle on a method's rated domain."""

    method: str
    max_abs: float
    max_rel: float


# ---------------------------------------------------------------------------
# Error sweeps
# ---------------------------------------------------------------------------

def _abs_diff(w_num, oracle_dd: DDComplex) -> np.ndarray:
    """|w_num - oracle| with the subtraction done in double-double."""
    if isinstance(w_num, DDComplex):
        dr = w_num.re - oracle_dd.re
        di = w_num.im - oracle_dd.im
    else:
        dr = DD(np.ascontiguousarray(w_num.real)) - oracle_dd.re
        di = DD(np.ascontiguousarray(w_num.imag)) - oracle_dd.im
    return np.hypot(dr.hi + dr.lo, di.hi + di.lo)


def _chunk_stats(z, w_num, oracle_dd):
    """Per-chunk partial maxima: (abs_max, abs_idx, rel_max, rel_idx, excluded)."""
    wo_abs = np.hypot(oracle_dd.re.hi, oracle_dd.im.hi)
    finite = np.isfinite(wo_abs) & (wo_abs > 0.0)
    excluded = int(np.count_nonzero(~finite))

    aerr = _abs_diff(w_num, oracle_dd)
    aerr = np.where(finite, aerr, -np.inf)
    ai = int(np.argmax(aerr))

    upper = finite & (z.imag >= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rerr = np.where(upper, aerr / wo_abs, -np.inf)
    ri = int(np.argmax(rerr))
    return float(aerr[ai]), ai, float(rerr[ri]), ri, excluded


class _MaxTracker:
    """Associative (max, first-argmax) reduction over ordered chunks."""

    def __init__(self):
        self.val = -math.inf
        self.arg = 0 + 0j

    def update(self, val, arg):
        if val > self.val:
            self.val = val
            self.arg = arg


def error_sweep(
    n_values,
    grid: GridSpec = GridSpec(),
    precision: str = "binary64",
    subsample: int | None = None,
    workers: int | None = None,
) -> list[SweepRecord]:
    """Max abs/rel error of the order-n evaluator vs the oracle, per n.

    ``precision="xprec"`` evaluates in double-double and is required for any
    n >= 12 (the binary64 arithmetic floor hides the true error there).  For
    xprec runs a deterministic 1-in-16 subsample is used unless ``subsample``
    overrides it; binary64 runs use the full grid by default.  Relative
    errors are restricted to Im(z) >= 0.  The chunked reduction is an
    associative max merged in stream order, so parallel and serial runs
    produce identical records.
    """
    n_values = list(n_values)
    if not n_values:
        raise ParameterError("n_values must be non-empty")
    if precision not in ("binary64", "xprec"):
        raise ParameterError(f"unknown precision {precision!r}")
    if precision == "binary64" and max(n_values) >= 12:
        raise ParameterError("orders >= 12 require precision='xprec'")

    z = gen_grid(grid)
    if subsample is None:
        subsample = 16 if precision == "xprec" else 1
    if subsample > 1:
        z = z[::subsample]

    trackers = {n: (_MaxTracker(), _MaxTracker()) for n in n_values}
    excluded_total = 0

    def work(chunk):
        oracle_dd = w_oracle(chunk)
        out = {}
        for n in n_values:
            if precision == "xprec":
                wn = w_ref(chunk, n)
            else:
                wn = core.w_plane(chunk, core.EvalParams.for_order(n))
                wn = np.atleast_1d(wn)
            out[n] = _chunk_stats(chunk, wn, oracle_dd)
        return out

    chunks = [z[i : i + _CHUNK] for i in range(0, z.size, _CHUNK)]
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = map(work, chunks)

    for chunk, stats in zip(chunks, results):
        for n in n_values:
            amax, ai, rmax, ri, _excl = stats[n]
            ta, tr = trackers[n]
            ta.update(amax, complex(chunk[ai]))
            tr.update(rmax, complex(chunk[ri]))
        excluded_total += stats[n_values[0]][4]

    if excluded_total:
        log.warning("excluded %d grid points with non-finite oracle values", excluded_total)

    records = []
    for n in n_values:
        ta, tr = trackers[n]
        records.append(
            SweepRecord(
                n=n,
                max_abs_err=ta.val,
                max_rel_err=tr.val,
                bound_abs=abs_bound(n),
                bound_rel=rel_bound(n),
                argmax_abs=ta.arg,
                argmax_rel=tr.arg,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Method registry for tables / timings / CLI
# ---------------------------------------------------------------------------

_METHOD_RE = re.compile(r"^\s*([a-z]+)\s*(?:\(([^)]*)\))?\s*$")


def parse_method(spec_str: str):
    """Parse "name(args)" into (label, evaluator, rated-domain mask function).

    Known names: trap(N), weideman(N), cf(n), zaghloul(a,K).
    """
    m = _METHOD_RE.match(spec_str)
    if not m:
        raise ParameterError(f"cannot parse method spec {spec_str!r}")
    name, args = m.group(1), m.group(2)
    args = [a.strip() for a in args.split(",")] if args else []

    if name == "trap":
        n = int(args[0]) if args else core.DEFAULT_N
        params = core.EvalParams.for_order(n)
        return (
            f"trap({n})",
            lambda z: np.atleast_1d(core.w_plane(z, params)),
            lambda z: np.ones(z.shape, dtype=bool),
        )
    if name == "weideman":
        from .reference import default_weideman_model, weideman_eval

        n = int(args[0]) if args else 40
        model = default_weideman_model(n)
        return (
            f"weideman({n})",
            lambda z: np.atleast_1d(weideman_eval(z, model)),
            lambda z: z.imag >= 0.0,
        )
    if name == "cf":
        from .reference import cf_convergent

        n = int(args[0]) if args else 9
        return (
            f"cf({n})",
            lambda z: np.atleast_1d(cf_convergent(z, n)),
            lambda z: np.abs(z) >= 8.0,
        )
    if name == "zaghloul":
        from .reference import ZaghloulParams, zaghloul_eval

        a = float(args[0]) if args else 0.5
        k = int(args[1]) if len(args) > 1 else 38
        p = ZaghloulParams(a=a, terms=k)
        return (
            f"zaghloul({a:g},{k})",
            lambda z: np.atleast_1d(zaghloul_eval(z, p)),
            lambda z: (z.real >= 0.0) & (z.imag >= 0.0),
        )
    raise ParameterError(f"unknown method {name!r}")


def accuracy_table(methods, grid: GridSpec = GridSpec()) -> list[TableRecord]:
    """Max abs/rel error vs the oracle for each method on its rated domain."""
    parsed = [parse_method(s) if isinstance(s, str) else s for s in methods]
    z = gen_grid(grid)

    rated = []
    for label, fn, mask_fn in parsed:
        mask = mask_fn(z)
        if not np.any(mask):
            raise ParameterError(f"method {label} has an empty rated subdomain on this grid")
        rated.append(mask)

    maxima = [[-math.inf, -math.inf] for _ in parsed]
    for i in range(0, z.size, _CHUNK):
        chunk = z[i : i + _CHUNK]
        oracle_dd = w_oracle(chunk)
        wo_abs = np.hypot(oracle_dd.re.hi, oracle_dd.im.hi)
        for j, (label, fn, _mask_fn) in enumerate(parsed):
            sel = rated[j][i : i + chunk.size]
            if not np.any(sel):
                continue
            wv = fn(chunk[sel])
            sub = DDComplex(oracle_dd.re[sel], oracle_dd.im[sel])
            aerr = _abs_diff(wv, sub)
            rerr = aerr / wo_abs[sel]
            maxima[j][0] = max(maxima[j][0], float(aerr.max()))
            maxima[j][1] = max(maxima[j][1], float(rerr.max()))

    return [
        TableRecord(method=label, max_abs=mx[0], max_rel=mx[1])
        for (label, _f, _m), mx in zip(parsed, maxima)
    ]


def timing_run(method, grid: GridSpec = GridSpec(), reps: int = 25) -> TimingRecord:
    """Mean/sd wall-clock time of full-grid evaluation (single-threaded).

    One discarded warm-up pass precedes the measured repetitions; grid
    generation and I/O are excluded from the measured region.
    """
    if reps < 3:
        raise ParameterError("reps must be >= 3")
    label, fn, _mask = parse_method(method) if isinstance(method, str) else method
    z = gen_grid(grid)
    fn(z)  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(z)
        times.append(time.perf_counter() - t0)
    times = np.asarray(times)
    return TimingRecord(
        method=label,
        mean_seconds=float(times.mean()),
        sd_seconds=float(times.std(ddof=1)),
        reps=reps,
        grid=grid.digest,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _flatten(record):
    """Ordered (name, value) pairs with complex fields split into _re/_im."""
    out = []
    for f in fields(record):
        v = getattr(record, f.name)
        if isinstance(v, complex):
            out.append((f.name + "_re", v.real))
            out.append((f.name + "_im", v.imag))
        else:
            out.append((f.name, v))
    return out


def _fmt(v):
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def render(records, fmt: str) -> str:
    """Render records to a CSV or JSON string (byte-deterministic)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header_done = False
        for rec in records:
            pairs = _flatten(rec)
            if not header_done:
                writer.writerow([k for k, _ in pairs])
                header_done = True
            writer.writerow([_fmt(v) for _, v in pairs])
        if not header_done:
            writer.writerow(_sweep_header())
        return buf.getvalue()
    if fmt == "json":
        rows = [dict(_flatten(rec)) for rec in records]
        return json.dumps(rows, indent=2, sort_keys=False) + "\n"
    raise ParameterError(f"unknown format {fmt!r}")


def _sweep_header():
    """CSV header of an empty sweep: the columns of a blank SweepRecord."""
    types = typing.get_type_hints(SweepRecord)
    return [k for k, _ in _flatten(SweepRecord(**{k: t() for k, t in types.items()}))]


def emit(records, fmt: str, path) -> None:
    """Write records to ``path`` as CSV or JSON."""
    text = render(list(records), fmt)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
