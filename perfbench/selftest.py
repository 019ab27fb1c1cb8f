"""Fast self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, emits exactly the metrics
BENCHMARK.json names, each with its unit and a finite value; that the failure
counts do not depend on the length of the run; that the known
defects count in ``failed_frac`` but not in ``failed`` and leave a run
correct, but only in the form ROADMAP records; that an injected NaN, a raising call or a sign-flipped
erf inside a known defect's region is counted as a failure and does make the
run incorrect; and that the tracer reports a missing layer function as
absent and restores what it wrapped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import check
import run
import tracing
import workloads


def quiet_run(name, trace, seconds=0.05):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        res = run.run(name, seed=7, seconds=seconds, trace=trace, tiny=True, setup_reps=1)
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert last == res, "the last printed line is not the result"
    return res


def check_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
    wanted = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    for name in workloads.NAMES:
        for trace in (0, 1):
            res = quiet_run(name, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            assert got == wanted[trace], (name, trace, set(got) ^ set(wanted[trace]))
            assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
            assert res["attempted"] >= 1
            assert res["correct"], (name, trace)
            if trace == 0:
                assert all(res["metrics"][k]["value"] > 0 for k in wanted[0]), name
            if name == "derived_batches":
                assert res["failed"] == 0, "a known defect counted as unexpected"
                if trace == 1:
                    assert res["metrics"]["failed_frac"]["value"] > 0, \
                        "the known erf/erfc defects did not count in failed_frac"
            print(f"ok {name} trace={trace}: {len(got)} metrics, "
                  f"{res['failed']}/{res['attempted']} failed")


def check_counts_follow_seed():
    """A longer run repeats more passes but counts the same points."""
    short, long = (quiet_run("derived_batches", 1, s) for s in (0.05, 0.5))
    counts = [(r["attempted"], r["failed"], r["metrics"]["failed_frac"]["value"])
              for r in (short, long)]
    assert counts[0] == counts[1], counts
    print(f"ok counts: {counts[0]} for a short and a long run")


def check_injected_failures():
    faddeeva = run.import_package()
    original = faddeeva.w

    def w_with_nan(z):
        out = np.array(original(z))
        out.flat[0] = complex("nan")
        return out

    def w_raising(z):
        raise FloatingPointError("injected")

    points = workloads.build("polar_grid", 7, tiny=True).points
    for fake, failed_per_call in ((w_with_nan, 1), (w_raising, points)):
        faddeeva.w = fake
        try:
            res = quiet_run("polar_grid", 0)
        finally:
            faddeeva.w = original
        assert not res["correct"], f"{fake.__name__} left the run correct"
        assert res["failed"] * points == res["attempted"] * failed_per_call, res
        print(f"ok {fake.__name__}: {res['failed']} of {res['attempted']} points failed")

    # a wrong value inside a known defect's input region is still a failure
    original_erf = faddeeva.erf

    def erf_sign_flipped(x):
        out = np.array(original_erf(x))
        small = np.abs(np.asarray(x)) < 1.0
        out[small] = -out[small]
        return out

    faddeeva.erf = erf_sign_flipped
    try:
        res = quiet_run("derived_batches", 0)
    finally:
        faddeeva.erf = original_erf
    assert not res["correct"], "a sign-flipped erf at |x| < 1 left the run correct"
    print(f"ok {erf_sign_flipped.__name__}: run marked incorrect")


def check_known_defects():
    """Only the failure a known defect records is excused in its region."""
    from scipy import special

    checker = check.Checker({"erf": 1e-13, "erfc": 1e-13})
    x = np.array([1e-10, 1e-10, 0.5])
    ref = special.erf(x)
    out = (ref + np.array([1e-15, 0.0, 0.0])) * np.array([1.0, -1.0, 1.0])
    out[2] = np.nan
    assert checker.failures(workloads.Call("erf", (x,), 3), out + 0j) == (3, 2)
    x = np.array([-27.0, -28.0])
    out = np.array([np.nan, 0.0]) + 0j
    assert checker.failures(workloads.Call("erfc", (x,), 2), out) == (2, 1)
    print("ok known defects: a cancelled erf and a NaN erfc excused, nothing else")


def check_tracer():
    faddeeva = run.import_package()
    from faddeeva import core

    before = (faddeeva.w, core._corrections)
    tracing.LAYERS["core.correction"][1].append(("_removed_by_refactor", None))
    try:
        tracer = tracing.Tracer(tracing.Recorder()).install()
        assert faddeeva.w is not before[0], "the package namespace was not wrapped"
        tracer.remove()
    finally:
        tracing.LAYERS["core.correction"][1].pop()
    assert tracer.absent == ["core._removed_by_refactor"], tracer.absent
    assert (faddeeva.w, core._corrections) == before, "wrappers were left installed"
    print("ok tracer: absent layer reported, wrappers removed")


if __name__ == "__main__":
    check_metrics()
    check_counts_follow_seed()
    check_injected_failures()
    check_known_defects()
    check_tracer()
    print("selftest passed")
