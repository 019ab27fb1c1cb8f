"""Per-layer spans recorded from outside the program.

The traced run replaces, for its duration, the module-level functions of
``faddeeva.core``, ``faddeeva.ddouble`` and ``faddeeva.oracle`` that make up
each layer (and the double-double arithmetic operators) with wrappers that
record a span -- layer, start, end, parent -- and the layer's work counts.
The program's source is not touched; every binding of a wrapped function in
those modules and in the package namespace is swapped back afterwards.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

_ARITH_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


def _size(v) -> int:
    return int(np.size(v))


def _count_mid(c, args, res):
    c["core.node_sum.terms"] += _size(args[0]) * (args[1].n + 1)


def _count_trap(c, args, res):
    c["core.node_sum.terms"] += _size(args[0]) * args[1].n


def _count_corrections(c, args, res):
    c["core.correction.points"] += _size(args[0])
    parts = res if isinstance(res, tuple) else (res,)
    c["core.correction.computed"] += sum(_size(r) for r in parts)


def _count_masks(c, args, res):
    for tag, mask in zip(("M", "MT", "MM"), res):
        c[f"core.branch.{tag}"] += int(np.count_nonzero(mask))


def _count_plane(c, args, res):
    c["core.plane.reflected_points"] += int(np.count_nonzero(np.imag(args[0]) < 0))


def _count_dd(layer):
    def count(c, args, res):
        c[f"{layer}.elements"] += _size(args[0].hi)
    return count


#: layer -> (module, [(function or Class.method, work counter or None)])
LAYERS = {
    "core.input": ("core", [("_as_xy", None)]),
    "core.masks": ("core", [("_branch_masks", _count_masks)]),
    "core.node_sum": ("core", [("_mid_sum_raw", _count_mid), ("_trap_sum_raw", _count_trap)]),
    "core.correction": ("core", [("_corrections", _count_corrections)]),
    "core.dispatch": ("core", [("w_quadrant1", None)]),
    "core.plane": ("core", [("w_plane", _count_plane)]),
    "core.derived": (
        "core",
        [(f, None) for f in ("erfc_c", "erf_c", "erfcx_c", "dawson_real", "voigt_kl")],
    ),
    "ddouble.exp": ("ddouble", [("dd_exp", _count_dd("ddouble.exp"))]),
    "ddouble.sincos": ("ddouble", [("dd_sincos", _count_dd("ddouble.sincos"))]),
    "ddouble.arith": (
        "ddouble",
        [(f"{cls}.{op}", None) for cls in ("DD", "DDComplex") for op in _ARITH_OPS],
    ),
    "oracle.node_sum": ("oracle", [("_mid_sum_dd", None), ("_trap_sum_dd", None)]),
    "oracle.correction": ("oracle", [("_corrections_dd", None)]),
    "oracle.dispatch": ("oracle", [("_w_q1_dd", None)]),
    "oracle.plane": ("oracle", [("w_ref", None), ("w_oracle", None)]),
}


#: Layers whose calls into other layers are not spans: the arithmetic inside
#: dd_exp and dd_sincos is their own work, and an operator that calls another
#: operator is one arithmetic step.
OPAQUE = ("ddouble.exp", "ddouble.sincos", "ddouble.arith")


def _nbytes(v) -> int:
    """Bytes of the arrays in a value (ndarray, DD, DDComplex or a tuple)."""
    t = type(v)
    if t is np.ndarray:
        return v.nbytes
    if t is tuple:
        n = 0
        for x in v:
            n += _nbytes(x)
        return n
    if t.__name__ == "DD":
        return v.hi.nbytes + v.lo.nbytes
    if t.__name__ == "DDComplex":
        return _nbytes(v.re) + _nbytes(v.im)
    return 0


class Recorder:
    """Spans kept in flat in-memory arrays until the run ends."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.opaque = {self.layers.index(name) for name in OPAQUE}
        self.layer = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.hidden = array("q")  # wrapper bookkeeping inside each span
        self.stack = []
        self.counts = Counter()

    def call(self, layer_id, fn, args, kwargs, counter):
        """Run ``fn`` inside a span; count its work after the span ends."""
        if self.stack and self.layer[self.stack[-1]] in self.opaque:
            return fn(*args, **kwargs)
        t_in = time.perf_counter_ns()
        i = len(self.layer)
        parent = self.stack[-1] if self.stack else -1
        self.layer.append(layer_id)
        self.parent.append(parent)
        self.hidden.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(start := time.perf_counter_ns())
        try:
            res = fn(*args, **kwargs)
        finally:
            self.end[i] = end = time.perf_counter_ns()
            self.stack.pop()
        self.counts["bytes"] += _nbytes(args) + _nbytes(res)
        if counter is not None:
            counter(self.counts, args, res)
        if parent >= 0:
            # the wrapper's own bookkeeping is not the parent layer's work
            self.hidden[parent] += time.perf_counter_ns() - t_in - (end - start)
        return res

    def self_seconds(self) -> dict:
        """Layer -> summed self time: each span's duration minus the part of
        it covered by its child spans and by their wrappers' bookkeeping."""
        dur = np.frombuffer(self.end, np.int64) - np.frombuffer(self.start, np.int64)
        parent = np.frombuffer(self.parent, np.int32)
        child = np.zeros(dur.size, np.int64)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = np.bincount(
            np.frombuffer(self.layer, np.int32),
            weights=dur - child - np.frombuffer(self.hidden, np.int64),
            minlength=len(self.layers),
        )
        return {name: own[i] * 1e-9 for i, name in enumerate(self.layers)}


class Tracer:
    """Install wrappers for every layer function that exists; remember the
    ones a refactor removed as absent layers instead of failing."""

    def __init__(self, recorder: Recorder):
        import faddeeva
        from faddeeva import core, ddouble, oracle

        self.rec = recorder
        self.modules = {"core": core, "ddouble": ddouble, "oracle": oracle}
        self.namespaces = [faddeeva, core, ddouble, oracle]
        self.absent = []
        self._undo = []

    def _wrap(self, layer_id, fn, counter):
        rec = self.rec

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return rec.call(layer_id, fn, args, kwargs, counter)

        return traced

    def install(self):
        for layer_id, (mod_name, targets) in enumerate(LAYERS.values()):
            mod = self.modules[mod_name]
            for target, counter in targets:
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.absent.append(f"{mod_name}.{target}")
                    continue
                wrapped = self._wrap(layer_id, original, counter)
                # an operator is rebound under its own name only (DD's
                # __radd__ is __add__); a function is rebound wherever it was
                # imported, the package namespace included
                if owner_name:
                    bindings = [(owner, attr)]
                else:
                    bindings = [
                        (ns, name) for ns in self.namespaces
                        for name, value in vars(ns).items() if value is original
                    ]
                for ns, name in bindings:
                    setattr(ns, name, wrapped)
                    self._undo.append((ns, name, original))
        return self

    def remove(self):
        for ns, name, original in reversed(self._undo):
            setattr(ns, name, original)
        self._undo.clear()
