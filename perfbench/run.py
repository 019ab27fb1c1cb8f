"""Benchmark of the faddeeva package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/`` of the
same checkout.  Each workload is a closed loop of calls from one thread in
one process: the next call starts when the previous one has returned.

``--trace 0`` times the calls untraced and prints the end-to-end metrics.
``--trace 1`` times them untraced and then traced, and prints the per-layer
metrics (see ``tracing.py``).  Both check every output against scipy and
print, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from array import array
from importlib import metadata
from pathlib import Path

import numpy as np

import check
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: call_us_tail needs ten calls beyond it, so a run makes 11 at least, and
#: a pass of fewer calls takes it over the whole run
MIN_CALLS = 11
#: call_us_tail goes no higher than p99: on a shared host the calls beyond
#: that are scheduling spikes, which differ more between runs than any bound
TAIL_MAX_PCT = 99.0
#: setup_s is the shortest of SETUP_REPS * STARTS_PER_PART fresh starts,
#: STARTS_PER_PART of them after each of SETUP_REPS parts of the timed loop
SETUP_REPS = 8
STARTS_PER_PART = 2
#: shares of --seconds in a traced run: untraced loop, traced loop, scipy
TRACE_SHARES = (0.4, 0.4, 0.1)


def import_package():
    """The faddeeva package of this checkout, never an installed copy."""
    if not (SRC / "faddeeva" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'faddeeva'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import faddeeva
    import faddeeva.oracle  # noqa: F401  (oracle_chunks calls it by attribute)

    if SRC not in Path(faddeeva.__file__).resolve().parents:
        raise SystemExit(f"error: faddeeva imported from {faddeeva.__file__}")
    return faddeeva


def setup_seconds(code: str) -> float:
    """Wall time of one fresh interpreter from its start through import to
    the first result."""
    script = f"{code}\nimport time\nprint(time.monotonic())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


class Loop:
    """Runs whole passes of a workload and times every call.  The first
    output of each call is kept for the scipy check; later ones must equal
    it bit for bit."""

    def __init__(self, faddeeva, wl):
        self.faddeeva = faddeeva
        self.wl = wl
        n = len(wl.calls)
        self.first = [None] * n
        self.evals = [0] * n
        self.diverged = [0] * n
        self.raised = 0
        self.first_error = None

    def run(self, budget_s: float, min_calls: int = 1):
        """Per-call latencies in ns over whole passes."""
        lat = array("q")  # 8 bytes a call, so the count barely moves peak RSS
        t_end = time.perf_counter() + budget_s
        while True:
            for i, call in enumerate(self.wl.calls):
                fn = workloads.resolve(self.faddeeva, call.api)
                t0 = time.perf_counter_ns()
                try:
                    out = fn(*call.args)
                except Exception:  # a failed call counts its points as failed
                    out = None
                    self.raised += 1
                    self.first_error = self.first_error or traceback.format_exc()
                lat.append(time.perf_counter_ns() - t0)
                self._keep(i, out)
            if time.perf_counter() >= t_end and len(lat) >= min_calls:
                return np.array(lat, dtype=np.float64)

    def _keep(self, i, out):
        res = None if out is None else check.as_complex(out)
        self.evals[i] += 1
        if self.evals[i] == 1:
            self.first[i] = res
        elif res is None or self.first[i] is None or not check.same(res, self.first[i]):
            self.diverged[i] += 1

    def verify(self, checker):
        """(attempted, failed, failed outside the known defects) points.

        Each distinct point of the pass counts once, so the counts depend
        on the seed only, not on how many passes the run had time for.  A
        call whose repeats did not all equal its first output (or raised)
        fails with all its points."""
        attempted = failed = unexpected = 0
        for i, call in enumerate(self.wl.calls):
            attempted += call.points
            if self.diverged[i]:
                failed += call.points
                unexpected += call.points
                continue
            bad, odd = checker.failures(call, self.first[i])
            failed += bad
            unexpected += odd
        return attempted, failed, unexpected

    @property
    def repeats(self) -> int:
        """Calls after the first of each, compared bit for bit with it."""
        return sum(self.evals) - len(self.evals)


def scipy_ns_per_pt(wl, budget_s: float) -> float:
    """The yardstick: scipy.special on the same calls, whole passes."""
    check.reference(wl.calls[0].api, wl.calls[0].args)  # import scipy first
    total = 0
    passes = 0
    t_end = time.perf_counter() + budget_s
    while passes == 0 or time.perf_counter() < t_end:
        for call in wl.calls:
            t0 = time.perf_counter_ns()
            check.reference(call.api, call.args)
            total += time.perf_counter_ns() - t0
        passes += 1
    return total / (passes * wl.points)


def end_to_end(wl, lat, setup_s, rss_mib):
    """ns_per_pt and call_us_p50 over the whole run, or over its fastest
    whole pass (the lowest mean latency) where ``wl.fastest_pass`` is set;
    call_us_tail over the same calls if they are MIN_CALLS at least, else
    over the whole run."""
    passes = lat.reshape(-1, len(wl.calls))
    best = passes[np.argmin(passes.mean(axis=1))]
    timed = best if wl.fastest_pass else lat
    srt = np.sort(timed if timed.size >= MIN_CALLS else lat)
    # 1-based rank of the highest percentile, up to TAIL_MAX_PCT, that has
    # at least ten calls beyond it
    rank = min(srt.size - 10, math.ceil(srt.size * TAIL_MAX_PCT / 100.0))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ns_per_pt": (timed.mean() / wl.call_points, "ns"),
        "call_us_p50": (float(np.median(timed)) / 1e3, "us"),
        "call_us_tail": (srt[rank - 1] / 1e3, "us"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    whole_rank = min(lat.size - 10, math.ceil(lat.size * TAIL_MAX_PCT / 100.0))
    note = (f"ns_per_pt and call_us_p50 over the "
            f"{'fastest pass' if wl.fastest_pass else 'whole run'}; the whole run's "
            f"{lat.size} calls average {lat.mean() / wl.call_points:.6g} ns/pt, the "
            f"fastest of {len(passes)} passes {best.mean() / wl.call_points:.6g} ns/pt; "
            f"call_us_tail is p{100.0 * rank / srt.size:.4g} of {srt.size} calls; "
            f"the whole run's p{100.0 * whole_rank / lat.size:.4g} is "
            f"{np.sort(lat)[whole_rank - 1] / 1e3:.6g} us")
    return metrics, note


def per_layer(wl, rec, lat_u, lat_t, scipy_ns):
    own = rec.self_seconds()
    c = rec.counts
    calls = lat_t.size
    metrics = {f"{layer}.self_s": (own[layer] / calls, "s/call") for layer in tracing.LAYERS}
    for name in ("core.node_sum.terms", "core.correction.points",
                 "core.plane.reflected_points", "ddouble.exp.elements",
                 "ddouble.sincos.elements"):
        metrics[name] = (c[name] / calls, "count/call")
    computed = c["core.correction.computed"]
    metrics["core.correction.useful_ratio"] = (
        c["core.correction.points"] / computed if computed else 0.0, "frac")
    branches = sum(c[f"core.branch.{t}"] for t in ("M", "MT", "MM"))
    for t in ("M", "MT", "MM"):
        metrics[f"core.branch.{t}_frac"] = (
            c[f"core.branch.{t}"] / branches if branches else 0.0, "frac")
    metrics["computed.boundary_bytes_per_pt"] = (c["bytes"] / (calls * wl.call_points), "B/pt")
    metrics["yardstick.scipy_ns_per_pt"] = (scipy_ns, "ns")
    metrics["trace.overhead_frac"] = (lat_t.mean() / lat_u.mean() - 1.0, "frac")
    metrics["trace.attributed_frac"] = (sum(own.values()) / (lat_t.sum() * 1e-9), "frac")
    return metrics


def _git_commit():
    """HEAD of this checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        return None
    return out or None


def _cpu():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return model, caches


def environment(name, seed, seconds, trace):
    from faddeeva import bench

    src = hashlib.sha256()
    for f in sorted((SRC / "faddeeva").glob("*.py")):
        src.update(f.read_bytes())
    spec = bench.GridSpec()
    grid = hashlib.sha256(bench.gen_polar_grid(spec).tobytes()).hexdigest()[:16]
    model, caches = _cpu()
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _git_commit(), "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": model, "caches": caches,
        "polar_grid": f"{spec.digest} sha256:{grid}",
    }


def run(name, seed, seconds, trace, tiny=False, setup_reps=SETUP_REPS):
    """Run one workload and print its report; return the result object."""
    faddeeva = import_package()
    wl = workloads.build(name, seed, tiny)
    loop = Loop(faddeeva, wl)
    loop.run(0)  # warm-up pass: lazy set-up and the outputs to check
    notes = []
    if trace:
        lat_u = loop.run(seconds * TRACE_SHARES[0])
        rec = tracing.Recorder()
        tracer = tracing.Tracer(rec).install()
        try:
            lat_t = loop.run(seconds * TRACE_SHARES[1])
        finally:
            tracer.remove()
        if tracer.absent:
            notes.append("absent layer functions: " + ", ".join(tracer.absent))
        scipy_ns = scipy_ns_per_pt(wl, seconds * TRACE_SHARES[2])
        metrics = per_layer(wl, rec, lat_u, lat_t, scipy_ns)
    else:
        # setup_s is the shortest start: a start is short and, like a short
        # pass (Workload.fastest_pass), can fall between the host's dips.
        # STARTS_PER_PART starts follow each of setup_reps equal parts of the
        # timed loop, so that the starts span the run's host speed states.
        setup_seconds(wl.setup_code)  # uncounted: writes the bytecode cache
        parts, starts, wall, cpu = [], [], 0, 0
        for k in range(setup_reps):
            done = sum(part.size for part in parts)
            wall0, cpu0 = time.perf_counter_ns(), time.thread_time_ns()
            # a part ends after a whole pass, so each part's budget takes
            # off what the parts before it ran over: the loop sums to
            # --seconds plus one pass, not plus one pass a part
            budget = seconds * (k + 1) / setup_reps - wall * 1e-9
            parts.append(loop.run(max(budget, 0.0),
                                  MIN_CALLS - done if k == setup_reps - 1 else 1))
            cpu += time.thread_time_ns() - cpu0
            wall += time.perf_counter_ns() - wall0
            starts.extend(setup_seconds(wl.setup_code) for _ in range(STARTS_PER_PART))
        lat = np.concatenate(parts)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = min(starts)
        metrics, note = end_to_end(wl, lat, setup_s, rss_mib)
        # a share well below 1 means the thread lost time slices (steal)
        notes.append(f"{note}; thread CPU time / wall time {cpu / wall:.4f}; "
                     f"set-up starts {' '.join(f'{t:.4f}' for t in starts)} s")

    tol = dict.fromkeys(("w", "voigt", "erfc", "erfcx", "erf", "dawson"),
                        faddeeva.rel_bound(faddeeva.DEFAULT_N) + check.SCIPY_REL)
    tol["oracle.w_oracle"] = faddeeva.rel_bound(faddeeva.oracle.ORACLE_N) + check.SCIPY_REL
    checker = check.Checker(tol)
    attempted, failed, unexpected = loop.verify(checker)
    # ``failed`` counts the points that fail in a way no recorded defect
    # explains, so it reads 0 while the program is as correct as it was;
    # the known-defect points count in failed_frac and the printed counts
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": unexpected,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    if trace:
        result["metrics"]["failed_frac"] = {"value": failed / attempted, "unit": "frac"}

    print("env " + json.dumps(environment(name, seed, seconds, trace)))
    for k, m in result["metrics"].items():
        print(f"metric {k} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(note)
    print(f"failed_frac {failed / attempted:.6g} ({failed} failed of {attempted} "
          f"distinct points; {failed - unexpected} of them known defects, "
          f"{unexpected} not; "
          f"{loop.repeats} repeated calls equal their first output bit for bit "
          f"except {sum(loop.diverged)})")
    for api, (rel, point) in sorted(checker.worst.items()):
        print(f"worst {api}: rel {rel:.3g} at {point!r} (tolerance {tol[api]:.3g})")
    for api, (why, _) in check.KNOWN_DEFECTS.items():
        if api in checker.worst:
            print(f"known defect {api}: {why}")
    if loop.raised:
        print(f"{loop.raised} calls raised; first:\n{loop.first_error}", file=sys.stderr)
    print(json.dumps(result))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
