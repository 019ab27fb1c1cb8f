"""Benchmark harness: test grids, error sweeps, accuracy tables, timings, I/O.

The default grids reproduce the two standard test sets: a first-quadrant
polar grid of 2001 x 801 = 1,602,801 points ``z = 10^p e^{i theta}`` and a
cartesian grid of 4001^2 = 16,008,001 points with ``x, y in [0, 10]``.
Error sweeps compare each order, in the arithmetic it picks, against the
extended-precision oracle and attach its theoretical error envelopes.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import logging
import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import core
from .bounds import abs_bound, rel_bound
from .ddouble import DD, DDComplex
from .errors import ParameterError
from .oracle import w_oracle, w_ref
from .reference import (ZaghloulParams, cf_convergent, default_weideman_model, weideman_eval,
                        zaghloul_eval)

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

#: error_sweep's highest binary64 order: abs_bound(12) = 2.8e-17 lies below
#: the unit roundoff 2^-53, so only double-double shows higher orders' error
BINARY64_MAX_N = 11


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

    def _p_count(self) -> int:
        if self.p_step <= 0.0 or self.p_max < self.p_min:
            raise ParameterError("need p_step > 0 and p_max >= p_min")
        return int(round((self.p_max - self.p_min) / self.p_step)) + 1

    def _axis_count(self) -> int:
        if self.step <= 0.0 or self.x_max < self.x_min:
            raise ParameterError("need step > 0 and x_max >= x_min")
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


def _max_errors(z, pairs, workers=None):
    """Max abs/rel error against the oracle of each ``(evaluate, rated)`` pair.

    ``rated`` is a boolean mask over z, or None for all of z; an evaluator
    sees only its rated points.  The oracle runs once per chunk of _CHUNK
    points.  Points where the oracle is not finite are excluded from both
    maxima (counted, and logged once); the relative error counts only where
    the oracle is also nonzero and Im(z) >= 0.  A NaN from an evaluator
    counts as an infinite error.  Chunks merge in stream order keeping the
    first argmax, so any ``workers`` count gives the serial result.

    Returns ``[max_abs, argmax_abs, max_rel, argmax_rel]`` per pair, with
    -inf and 0j where a pair has no counted point.
    """

    def work(lo):
        chunk = z[lo : lo + _CHUNK]
        oracle_dd = w_oracle(chunk)
        wo_abs = np.hypot(oracle_dd.re.hi, oracle_dd.im.hi)
        finite = np.isfinite(wo_abs)
        upper = finite & (wo_abs > 0.0) & (chunk.imag >= 0.0)
        stats = []
        for evaluate, rated in pairs:
            idx = slice(None) if rated is None else np.flatnonzero(rated[lo : lo + _CHUNK])
            zs = chunk[idx]
            if not zs.size:
                stats.append(None)
                continue
            aerr = _abs_diff(evaluate(zs), oracle_dd[idx])
            aerr[np.isnan(aerr)] = np.inf
            aerr[~finite[idx]] = -np.inf
            with np.errstate(divide="ignore", invalid="ignore"):
                rerr = np.where(upper[idx], aerr / wo_abs[idx], -np.inf)
            ai, ri = int(np.argmax(aerr)), int(np.argmax(rerr))
            stats.append((float(aerr[ai]), complex(zs[ai]), float(rerr[ri]), complex(zs[ri])))
        return int(np.count_nonzero(~finite)), stats

    starts = range(0, z.size, _CHUNK)
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, starts))
    else:
        results = map(work, starts)

    best = [[-math.inf, 0j, -math.inf, 0j] for _ in pairs]
    excluded = 0
    for n_excluded, stats in results:
        excluded += n_excluded
        for b, s in zip(best, stats):
            if s is not None:
                if s[0] > b[0]:
                    b[0:2] = s[0:2]
                if s[2] > b[2]:
                    b[2:4] = s[2:4]
    if excluded:
        log.warning("excluded %d grid points with non-finite oracle values", excluded)
    return best


def error_sweep(
    n_values,
    grid: GridSpec = GridSpec(),
    workers: int | None = None,
) -> list[SweepRecord]:
    """Max abs/rel error of the order-n evaluator vs the oracle, per n.

    Orders up to BINARY64_MAX_N = 11 run `core.w_plane` on every grid point,
    higher orders `oracle.w_ref` in double-double on every 16th point.
    Points where the oracle is not finite are excluded (and logged);
    relative errors count only where the oracle is nonzero and Im(z) >= 0.
    Parallel and serial runs produce identical records.
    """
    n_values = list(n_values)
    if not n_values:
        raise ParameterError("n_values must be non-empty")
    for n in n_values:  # every order is checked before the grid is built
        core._params(n)
    if workers is not None and workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    z = gen_grid(grid)
    records = {}
    for binary64, evaluate, zs in ((True, core.w_plane, z), (False, w_ref, z[::16])):
        ns = [n for n in n_values if (n <= BINARY64_MAX_N) == binary64]
        if ns:
            pairs = [(functools.partial(evaluate, n=n), None) for n in ns]
            for n, (a, ai, r, ri) in zip(ns, _max_errors(zs, pairs, workers)):
                records[n] = SweepRecord(n, a, r, abs_bound(n), rel_bound(n), ai, ri)
    return [records[n] for n in n_values]


# ---------------------------------------------------------------------------
# Method registry for tables / timings / CLI
# ---------------------------------------------------------------------------

_METHOD_RE = re.compile(r"^\s*([a-z]+)\s*(?:\(([^)]*)\))?\s*$")

#: name -> (default arguments, whose types parse a spec's, evaluator factory, rated domain)
_METHODS = {
    "trap": ((core.DEFAULT_N,),
             lambda n: functools.partial(core.w_plane, n=n),
             lambda z: np.ones(z.shape, dtype=bool)),
    "weideman": ((40,),
                 lambda n: functools.partial(weideman_eval, m=default_weideman_model(n)),
                 lambda z: z.imag >= 0.0),
    "cf": ((9,),
           lambda n: functools.partial(cf_convergent, n=n),
           lambda z: np.abs(z) >= 8.0),
    "zaghloul": ((0.5, 38),
                 lambda a, k: functools.partial(zaghloul_eval, p=ZaghloulParams(a=a, terms=k)),
                 lambda z: (z.real >= 0.0) & (z.imag >= 0.0)),
}


def parse_method(spec_str: str):
    """Parse "trap(N)", "weideman(N)", "cf(n)" or "zaghloul(a,K)" into (label,
    evaluator, rated-domain mask function); omitted trailing arguments take
    their defaults in _METHODS.  An argument the evaluator refuses raises
    ParameterError naming the spec."""
    m = _METHOD_RE.match(spec_str)
    if not m or m.group(1) not in _METHODS:
        raise ParameterError(f"unknown method spec {spec_str!r}; known: {', '.join(_METHODS)}")
    name, args = m.groups()
    defaults, factory, rated = _METHODS[name]
    args = [a.strip() for a in args.split(",")] if args else []
    if len(args) > len(defaults):
        raise ParameterError(f"method spec {spec_str!r} has {len(args)} arguments; "
                             f"{name} takes at most {len(defaults)}")
    try:
        values = [type(d)(a) for d, a in zip(defaults, args)] + list(defaults[len(args):])
        evaluate = factory(*values)
        # every evaluator checks its arguments before any work: probe on no points
        evaluate(np.empty(0, dtype=np.complex128))
    except ValueError as exc:
        raise ParameterError(f"bad argument in method spec {spec_str!r}: {exc}") from None
    shown = ",".join(f"{v:g}" if isinstance(v, float) else str(v) for v in values)
    return f"{name}({shown})", evaluate, rated


def accuracy_table(methods, grid: GridSpec = GridSpec()) -> list[TableRecord]:
    """Max abs/rel error vs the oracle for each method on its rated domain.

    Each method is evaluated only on the grid points of its rated domain,
    and all methods share one oracle pass (`_max_errors`).  Points where the
    oracle is not finite are excluded from both maxima, and their count is
    logged; the relative error counts only where the oracle is also nonzero
    and Im(z) >= 0.  Raises ParameterError if a method's rated domain holds
    no grid point.
    """
    parsed = [parse_method(s) for s in methods]
    if not parsed:
        raise ParameterError("no methods given")
    z = gen_grid(grid)

    pairs = []
    for label, fn, mask_fn in parsed:
        mask = mask_fn(z)
        if not np.any(mask):
            raise ParameterError(f"method {label} has an empty rated subdomain on this grid")
        pairs.append((fn, mask))

    return [
        TableRecord(method=label, max_abs=a, max_rel=r)
        for (label, _f, _m), (a, _ai, r, _ri) in zip(parsed, _max_errors(z, pairs))
    ]


def timing_run(methods, grid: GridSpec = GridSpec(), reps: int = 25) -> list[TimingRecord]:
    """Mean/sd wall-clock time of full-grid evaluation (single-threaded) of
    each method; every spec is parsed before the one grid is built.

    One discarded warm-up pass precedes each method's measured repetitions;
    grid generation and I/O are excluded from the measured region.
    """
    if reps < 3:
        raise ParameterError("reps must be >= 3")
    parsed = [parse_method(s) for s in methods]
    if not parsed:
        raise ParameterError("no methods given")
    z = gen_grid(grid)
    records = []
    for label, fn, _mask in parsed:
        fn(z)  # warm-up
        times = np.empty(reps)
        for i in range(reps):
            t0 = time.perf_counter()
            fn(z)
            times[i] = time.perf_counter() - t0
        records.append(TimingRecord(label, float(times.mean()), float(times.std(ddof=1)),
                                    reps, grid.digest))
    return records


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


def emit(records, path) -> None:
    """Write records to ``path`` byte-deterministically: JSON if its name
    ends in ".json", else CSV."""
    rows = [_flatten(rec) for rec in records]
    if str(path).endswith(".json"):
        text = json.dumps([dict(row) for row in rows], indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            writer.writerow([k for k, _ in rows[0]])
        writer.writerows([_fmt(v) for _, v in row] for row in rows)
        text = buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(text)
