"""The layer functions that the benchmark's traced run wraps stay in place.

``perfbench/tracing.py`` wraps module-level functions of ``faddeeva.core``
and ``faddeeva.oracle`` by name and reads their arguments: points first,
``EvalParams`` second.  A refactor that renames, inlines or reorders one of
them, or calls it through a reference taken at import, would silently turn
its layer into an absent or empty one, so this test installs the tracer and
checks that every layer is found and records the work of real calls.
"""

import sys
from pathlib import Path

import numpy as np

import faddeeva
from faddeeva import core, oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_and_counts_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    try:
        before = (faddeeva.w, core.w_plane, core._corrections)
        rec = tracing.Recorder()
        tracer = tracing.Tracer(rec).install()
        try:
            assert tracer.absent == []
            # 0.05 + 0.05j is an MM point within h/4 of 0, and 30 + 90j an M
            # point beyond |z| = 64: binary64 sums them by the rules' Maclaurin
            # and Laurent series, with no node sum and no correction
            z = np.array(
                [0.5 + 9.0j, 3.2 + 0.1j, 1.0 + 1.0j, -2.0 - 0.5j, 0.05 + 0.05j, 30.0 + 90.0j]
            )
            faddeeva.w(z)
            c = rec.counts.copy()
            # the oracle runs core's dispatch and fold: one point per quadrant
            oracle.w_oracle(np.array([0.5 + 9.0j, -3.2 + 0.1j, -1.0 - 1.0j, 2.0 - 0.5j]))
        finally:
            tracer.remove()
        assert (faddeeva.w, core.w_plane, core._corrections) == before
    finally:
        sys.modules.pop("tracing", None)

    spans = set(rec.layer)
    for layer in ("oracle.node_sum", "oracle.correction", "oracle.dispatch", "oracle.plane"):
        assert rec.layers.index(layer) in spans, layer

    n = core.DEFAULT_N
    m, mt, mm = (c[f"core.branch.{t}"] for t in ("M", "MT", "MM"))
    assert (m, mt, mm) == (2, 1, 3)
    assert c["core.node_sum.terms"] == (m - 1 + mm - 1) * (n + 1) + mt * n
    # one correction per corrected point, none for M or the series points
    assert c["core.correction.points"] == c["core.correction.computed"] == mt + mm - 1
    assert c["core.plane.reflected_points"] == 1
