"""Correctness of every output against ``scipy.special``.

``scipy.special.wofz`` is S. G. Johnson's Faddeeva Package, independent of
the code under test.  A point fails when its call raised, when it returns a
NaN (no input here is NaN), when an infinity that scipy returns is missing or
has the wrong sign, or when its relative difference from scipy exceeds

    TOL = rel_bound(N) + SCIPY_REL

that is, the program's proven relative bound at the order it runs at plus
the 13 significant digits the Faddeeva Package is written to deliver.
Results that both lie below the smallest normal double pass: binary64 has no
relative accuracy there, and scipy's erfc flushes them to zero.
"""

from __future__ import annotations

import functools

import numpy as np

SCIPY_REL = 1e-13
DBL_MIN = np.finfo(np.float64).tiny

#: Defects recorded in ROADMAP item 2 before this benchmark existed, each as
#: (what goes wrong, which failed points it excuses).  Their points stay in
#: the inputs and count in ``failed_frac``; a failure that is not exactly the
#: recorded one counts in ``failed`` and makes a run incorrect.
KNOWN_DEFECTS = {
    # erf = 1 - erfc loses relative accuracy but keeps an absolute error of
    # at most |erfc| * tol <= 2 * tol (the subtraction adds half an ulp of 1)
    "erf": ("|x| < 1: erf = 1 - erfc cancels",
            lambda x, out, ref, tol: (np.abs(x) < 1.0) & (np.abs(out - ref) <= 2.0 * tol)),
    "erfc": ("x < -26: the reflection overflows to NaN",
             lambda x, out, ref, tol: (x < -26.0) & np.isnan(out)),
    "erfcx": ("x < -26: the reflection overflows to NaN",
              lambda x, out, ref, tol: (x < -26.0) & np.isnan(out)),
}


def as_complex(out) -> np.ndarray:
    """An output of any public function as a flat complex128 array."""
    if isinstance(out, tuple):  # voigt's (K, L)
        k, l = (np.asarray(v, np.float64).ravel() for v in out)
        res = np.empty(k.size, np.complex128)
        res.real, res.imag = k, l
        return res
    if hasattr(out, "to_complex"):  # the oracle's DDComplex
        out = out.to_complex()
    return np.asarray(out, np.complex128).ravel()


def same(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equal, NaNs included."""
    return a.shape == b.shape and bool(
        np.all(a.view(np.uint64) == b.view(np.uint64))
    )


@functools.cache
def _scipy() -> dict:
    from scipy import special

    return {
        "w": special.wofz,
        "oracle.w_oracle": special.wofz,
        "voigt": lambda x, y: special.wofz(x + 1j * y),
        "erfc": special.erfc,
        "erfcx": special.erfcx,
        "erf": special.erf,
        "dawson": special.dawsn,
    }


def reference(api: str, args):
    """scipy's value for the call ``api(*args)``."""
    return _scipy()[api](*args)


def point_errors(out: np.ndarray, ref) -> np.ndarray:
    """Relative difference per point; a NaN or a missed infinity counts as
    an infinite difference, an infinity matched exactly as none."""
    ref = np.asarray(ref, np.complex128).ravel()
    with np.errstate(all="ignore"):
        err = np.abs(out - ref) / np.maximum(np.abs(ref), DBL_MIN)
    tiny = (np.abs(ref) < DBL_MIN) & (np.abs(out) < DBL_MIN)
    err = np.where(tiny, 0.0, err)
    inf_re, inf_im = np.isinf(ref.real), np.isinf(ref.imag)
    inf_ok = (~inf_re | (out.real == ref.real)) & (~inf_im | (out.imag == ref.imag))
    err = np.where(inf_re | inf_im, np.where(inf_ok, 0.0, np.inf), err)
    err = np.where(np.isnan(out.real) | np.isnan(out.imag), np.inf, err)
    return err


class Checker:
    """Failed points per call, and the worst point of each function."""

    def __init__(self, tol_by_api: dict):
        self.tol = tol_by_api
        self.worst = {}  # api -> (rel, input point)

    def failures(self, call, out) -> tuple:
        """(failed, failed outside KNOWN_DEFECTS) points of one call's
        output; ``out`` is None when the call raised."""
        if out is None:
            return call.points, call.points
        ref = np.asarray(reference(call.api, call.args), np.complex128).ravel()
        err = point_errors(out, ref)
        tol = self.tol[call.api]
        bad = ~(err <= tol)
        x = np.ravel(call.args[0])
        i = int(np.argmax(err))
        point = x[i] + 1j * call.args[1] if call.api == "voigt" else x[i]
        if call.api not in self.worst or err[i] > self.worst[call.api][0]:
            self.worst[call.api] = (float(err[i]), complex(point))
        known = KNOWN_DEFECTS.get(call.api)
        if known is None:
            expected = np.zeros(x.shape, bool)
        else:
            with np.errstate(invalid="ignore"):
                expected = known[1](x, out, ref, tol)
        return int(np.count_nonzero(bad)), int(np.count_nonzero(bad & ~expected))
