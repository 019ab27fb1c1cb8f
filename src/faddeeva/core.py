"""Faddeeva function w(z) in binary64 via truncated modified trapezoidal rules.

The evaluator uses three closely related quadrature formulas on the first
quadrant -- a midpoint-rule sum, the same sum with a residue correction,
and a trapezoidal sum with a residue correction -- picking per point the
one whose nodes stay at distance >= h/4 from z.  Symmetries extend the
result to the whole complex plane.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, ParameterError

N_MAX = 25
DEFAULT_N = 11

# points per block of the evaluation pass: a block's input, output and
# complex temporaries stay in L2 (chosen from a sweep of block sizes)
_BLOCK = 16384


def _is_order(n) -> bool:
    """An integer in [0, N_MAX]; bool is an int subclass but not an order."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and 0 <= n <= N_MAX


def step_size(n: int) -> float:
    """Quadrature step sqrt(pi/(N+1)) for order N."""
    if not _is_order(n):
        raise ParameterError(f"order must be an integer in [0, {N_MAX}], got {n!r}")
    return math.sqrt(math.pi / (n + 1))


class BranchTag(enum.Enum):
    """Which of the three quadrature formulas the dispatch rule picks."""

    M = "M"    # plain midpoint sum
    MM = "MM"  # midpoint sum plus residue correction
    MT = "MT"  # trapezoidal sum plus residue correction


@dataclass(frozen=True)
class EvalParams:
    """Quadrature order N and the derived step h = sqrt(pi/(N+1))."""

    n: int

    def __post_init__(self):
        step_size(self.n)

    @property
    def h(self) -> float:
        return step_size(self.n)


@functools.lru_cache(maxsize=32)
def _node_data(n: int):
    """Midpoint nodes t_k = (k+1/2)h, k = 0..N, trapezoidal nodes tau_k = kh,
    k = 1..N, and their weights exp(-node^2)."""
    h = step_size(n)
    t = (np.arange(n + 1) + 0.5) * h
    tau = np.arange(1, n + 1) * h
    return t, np.exp(-t * t), tau, np.exp(-tau * tau)


def _as_xy(z):
    z = np.asarray(z, dtype=np.complex128)
    if np.isnan(z).any():
        raise DomainError("NaN component in complex argument")
    return z


def _scalar_out(res, scalar):
    return complex(res) if scalar else res


def _pole_sum(z2, nodes, weights):
    """sum_k weights_k/(z^2 - nodes_k^2), accumulated from the last node."""
    s = np.zeros_like(z2)
    d = np.empty_like(z2)
    for k in range(nodes.size - 1, -1, -1):
        np.subtract(z2, nodes[k] * nodes[k], out=d)
        np.divide(weights[k], d, out=d)
        s += d
    return s


def _mid_sum_raw(z, p: EvalParams, z2):
    """(2ihz/pi) * sum_k exp(-t_k^2)/(z^2 - t_k^2), accumulated k = N..0."""
    t, et, _, _ = _node_data(p.n)
    return (2j * p.h / np.pi) * z * _pole_sum(z2, t, et)


def _trap_sum_raw(z, p: EvalParams, z2):
    """ih/(pi z) + (2ihz/pi) * sum_{k=1}^N exp(-tau_k^2)/(z^2 - tau_k^2)."""
    _, _, tau, etau = _node_data(p.n)
    return 1j * p.h / (np.pi * z) + (2j * p.h / np.pi) * z * _pole_sum(z2, tau, etau)


def _corrections(z, p: EvalParams, z2, tag: BranchTag):
    """Residue correction 2 e^{-z^2}/(1 +- e^{-2 i pi z / h}) of an MM or MT point.

    It is evaluated through q = e^{2 i pi z / h}, which has modulus <= 1
    for Im(z) >= 0, so the exponential never overflows:
    the MM correction is 2 e^{-z^2} q/(1+q), the MT one 2 e^{-z^2} q/(q-1).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        ez2 = np.negative(z2)
        np.exp(ez2, out=ez2)
        q = 2j * np.pi * z
        q /= p.h
        np.exp(q, out=q)
        # a complex multiply gets a fresh output: with the output aliasing an
        # input, numpy takes another inner loop for length-1 arrays, and the
        # last bit of the product differs
        num = 2.0 * ez2 * q
        if tag is BranchTag.MT:
            q -= 1.0
        else:
            q += 1.0
        num /= q
    return num


#: the residue correction is computed where the binary64 estimate of its
#: exponent, y^2 - x^2 - 2 pi y/h, is at least this (see _add_correction)
_LIVE_EXPONENT = -750.0


def _add_correction(w, z, p: EvalParams, tag: BranchTag, correction):
    """The sum w of the formula ``tag`` on points z plus its residue correction,
    where ``correction(i)`` computes the correction of the points z[i].

    M points get none.  On MM and MT points the correction 2 e^{-z^2} q/(1 +- q)
    is at most e^{y^2 - x^2 - 2 pi y/h} |2/(1 +- q)|.  Below the cut y < x (an
    MM point with y >= x has y < pi/h, so its exponent is above
    -2 pi (N+1) >= -164), and for y < x the dispatch puts 2 pi x/h within
    pi/2 of a multiple of 2 pi on MM points and of an odd multiple of pi on
    MT points.  So |1 +- q| >= 1, and the correction is below 2 e^-750, under
    half the smallest subnormal: computed, it is exactly 0, so it is skipped
    in either arithmetic.  That also keeps phases 2 pi x/h ~ 1e40, which no
    binary64 reduction places, away from the double-double sine.
    """
    if tag is BranchTag.M:
        return w
    x, y = z.real, z.imag
    with np.errstate(over="ignore", invalid="ignore"):
        live = y * y - x * x - (2.0 * np.pi / p.h) * y >= _LIVE_EXPONENT
    # boolean: a full group's index array would be alive at the correction's peak
    count = np.count_nonzero(live)
    if count == z.size:
        return w + correction(...)
    if count:
        live = np.flatnonzero(live)
        w[live] = w[live] + correction(live)
    return w


def _rule(z, p: EvalParams, tag: BranchTag):
    """The quadrature formula ``tag`` on points z of the closed first quadrant."""
    z2 = z * z
    w = _trap_sum_raw(z, p, z2) if tag is BranchTag.MT else _mid_sum_raw(z, p, z2)
    return _add_correction(w, z, p, tag, lambda i: _corrections(z[i], p, z2[i], tag))


def _branch_masks(x, y, p: EvalParams):
    pi_over_h = np.pi / p.h
    m = y >= np.maximum(x, pi_over_h)
    xh = x / p.h
    phi = xh - np.floor(xh)
    # y < x already excludes m
    mt = (y < x) & (phi >= 0.25) & (phi <= 0.75)
    mm = ~(m | mt)
    return m, mt, mm


def select_branch(z, n: int = DEFAULT_N) -> BranchTag:
    """Dispatch rule of order n on the closed first quadrant (scalar arguments)."""
    p = EvalParams(n)
    z = _as_xy(z)
    if z.ndim != 0:
        raise ParameterError("select_branch takes a scalar argument")
    x, y = float(z.real), float(z.imag)
    if x < 0 or y < 0:
        raise DomainError("select_branch requires the closed first quadrant")
    m, mt, _ = _branch_masks(np.float64(x), np.float64(y), p)
    if m:
        return BranchTag.M
    if mt:
        return BranchTag.MT
    return BranchTag.MM


def _reflect(zl, wneg):
    """w(z) = 2 e^{-z^2} - w(-z) for Im(z) < 0, given wneg = w(-z).

    The true function grows like exp(y^2 - x^2) there, so e^{-z^2} is
    assembled componentwise: an overflowing magnitude then yields signed
    infinities, where a complex product would give 0*inf NaNs.
    """
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        a = -(zl * zl)
        mag = np.exp(a.real)
        sin = np.sin(a.imag)
        re = 2.0 * mag * np.cos(a.imag) - wneg.real
        # sin(0) is exactly 0, also when mag has overflowed
        im = np.where(a.imag == 0.0, sin, 2.0 * mag * sin) - wneg.imag
    out = np.empty_like(wneg)
    # the signed zeros of the complex sum re + 1j*im, without its 0*inf NaN
    out.real = re + np.copysign(0.0, im)
    out.imag = im + 0.0
    return out


def _negate_imag(w, where):
    np.negative(w.imag, out=w.imag, where=where)


class _Arithmetic(NamedTuple):
    """The arithmetic the dispatch and the fold run in.

    ``empty(size)`` makes the flat output container, ``rule(z, p, tag)``
    evaluates the formula ``tag`` on first-quadrant points,
    ``negate_imag(w, where)`` negates Im w in place where the mask holds, and
    ``reflect(zl, wneg)`` returns 2 e^{-z^2} - wneg for Im(z) < 0.
    """

    empty: Callable
    rule: Callable
    negate_imag: Callable
    reflect: Callable


_BINARY64 = _Arithmetic(
    functools.partial(np.empty, dtype=np.complex128), _rule, _negate_imag, _reflect
)


def _quadrant1_block(zq, p: EvalParams, out, arith: _Arithmetic):
    """Write w_N(zq) into ``out`` for one block of first-quadrant points."""
    masks = _branch_masks(zq.real, zq.imag, p)
    for tag, sel in zip((BranchTag.M, BranchTag.MT, BranchTag.MM), masks):
        # index arrays gather and scatter several times faster than masks
        idx = np.flatnonzero(sel)
        if idx.size == zq.size:
            out[...] = arith.rule(zq, p, tag)
        elif idx.size:
            out[idx] = arith.rule(zq[idx], p, tag)


def _evaluate(z, p: EvalParams, arith: _Arithmetic = _BINARY64):
    """w_N on validated points, in blocks of _BLOCK points; the flat result.

    Each point is folded to |x| + i|y|, evaluated there, and mapped back:
    conjugated for x < 0 in the upper half-plane, reflected through
    w(z) = 2 e^{-z^2} - w(-z) in the lower one.  Only one block's
    temporaries are alive at a time.
    """
    zf = z.reshape(-1)
    out = arith.empty(zf.size)
    for i in range(0, zf.size, _BLOCK):
        zb = zf[i:i + _BLOCK]
        ob = out[i:i + _BLOCK]
        x, y = zb.real, zb.imag
        if np.isinf(y).any():
            # the rules give NaNs there; refuse rather than return them
            raise DomainError("infinite imaginary part in complex argument")
        zq = np.empty_like(zb)
        np.abs(x, out=zq.real)
        np.abs(y, out=zq.imag)
        _quadrant1_block(zq, p, ob, arith)
        # w(-conj z) = conj w(z), through z itself above the real axis and
        # through -z below it
        lower = np.flatnonzero(y < 0)
        conj = x < 0
        conj[lower] = x[lower] > 0
        if conj.any():
            arith.negate_imag(ob, conj)
        if lower.size:
            ob[lower] = arith.reflect(zb[lower], ob[lower])
    return out


def w_quadrant1(z, n: int = DEFAULT_N):
    """w_N(z) of order n on the closed first quadrant via the three-formula dispatch."""
    p = EvalParams(n)
    z = _as_xy(z)
    if np.any(z.real < 0) or np.any(z.imag < 0):
        raise DomainError("w_quadrant1 requires the closed first quadrant")
    return _scalar_out(_evaluate(z, p).reshape(z.shape), z.ndim == 0)


def w_plane(z, n: int = DEFAULT_N):
    """w_N(z) of order n on the whole complex plane via the quadrant symmetries.

    For Im(z) < 0 the true function grows like exp(y^2 - x^2) and the
    result overflows to a signed infinity once that exceeds binary64 range.
    """
    p = EvalParams(n)
    z = _as_xy(z)
    return _scalar_out(_evaluate(z, p).reshape(z.shape), z.ndim == 0)


def erfc_c(z, n: int = DEFAULT_N):
    """Complementary error function erfc(z) = e^{-z^2} w(iz) for Re z >= 0.

    For Re z < 0 it is 2 - erfc(-z), so that w is only ever evaluated in
    the upper half-plane, where it is small and needs no reflection.
    """
    z = _as_xy(z)
    scalar = z.ndim == 0
    neg = z.real < 0
    zr = np.where(neg, -z, z)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        out = np.exp(-(zr * zr)) * w_plane(1j * zr, n)
        out = np.where(neg, 2.0 - out, out)
    return _scalar_out(out, scalar)


def erf_c(z, n: int = DEFAULT_N):
    """Error function erf(z) = 1 - erfc(z)."""
    res = np.asarray(1.0 - np.asarray(erfc_c(z, n)))
    return _scalar_out(res, np.ndim(z) == 0)


def erfcx_c(z, n: int = DEFAULT_N):
    """Scaled complementary error function e^{z^2} erfc(z) = w(iz)."""
    return w_plane(1j * _as_xy(z), n)


def dawson_real(x, n: int = DEFAULT_N):
    """Dawson's integral for real x: (sqrt(pi)/2) Im w(x).

    It is odd in x exactly: the fold conjugates w(|x|) for x < 0.
    """
    x = np.asarray(x, dtype=np.float64)
    out = (math.sqrt(math.pi) / 2.0) * np.asarray(w_plane(x + 0j, n)).imag
    return float(out) if x.ndim == 0 else out


def voigt_kl(x, y, n: int = DEFAULT_N):
    """Voigt line-shape pair (K, L) = (Re w(x+iy), Im w(x+iy)), y > 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ParameterError("voigt_kl requires y > 0")
    w = np.asarray(w_plane(x + 1j * y, n))
    if w.ndim == 0:
        return float(w.real), float(w.imag)
    return w.real, w.imag
