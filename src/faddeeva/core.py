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

from .errors import DomainError, ParameterError, PoleProximityError

N_MAX = 25
DEFAULT_N = 11

# distance guard for non-dispatched calls to the raw rules
_POLE_GUARD = 1e-3

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
        if not _is_order(self.n):
            raise ParameterError(f"order must be in [0, {N_MAX}], got {self.n!r}")

    @property
    def h(self) -> float:
        return step_size(self.n)

    @property
    def t_nodes(self):
        """Midpoint nodes t_k = (k+1/2)h, k = 0..N."""
        return (np.arange(self.n + 1) + 0.5) * self.h

    @property
    def tau_nodes(self):
        """Trapezoidal nodes tau_k = kh, k = 1..N."""
        return np.arange(1, self.n + 1) * self.h


@functools.lru_cache(maxsize=32)
def _node_data(n: int):
    p = EvalParams(n)
    t = p.t_nodes
    tau = p.tau_nodes
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


def _rule(z, p: EvalParams, tag: BranchTag):
    """The quadrature formula ``tag`` on points z of the closed first quadrant."""
    z2 = z * z
    if tag is BranchTag.MT:
        return _trap_sum_raw(z, p, z2) + _corrections(z, p, z2, tag)
    s = _mid_sum_raw(z, p, z2)
    return s if tag is BranchTag.M else s + _corrections(z, p, z2, tag)


def w_mid_sum(z, p: EvalParams):
    """Midpoint-rule sum approximation; valid away from the nodes +-t_k."""
    z = _as_xy(z)
    scalar = z.ndim == 0
    t, _, _, _ = _node_data(p.n)
    dmin = np.min(np.abs(np.abs(z.reshape(-1, 1).real) + 1j * z.reshape(-1, 1).imag - t), axis=1)
    if np.any(dmin < p.h * _POLE_GUARD):
        raise PoleProximityError("argument within h/1000 of a midpoint node")
    return _scalar_out(_rule(np.atleast_1d(z), p, BranchTag.M).reshape(z.shape), scalar)


def w_mod_mid(z, p: EvalParams):
    """Midpoint sum plus residue correction; first-quadrant arguments."""
    z = _as_xy(z)
    scalar = z.ndim == 0
    if np.any(z.real < 0) or np.any(z.imag < 0):
        raise DomainError("w_mod_mid requires Re(z) >= 0 and Im(z) >= 0")
    return _scalar_out(_rule(np.atleast_1d(z), p, BranchTag.MM).reshape(z.shape), scalar)


def w_mod_trap(z, p: EvalParams):
    """Trapezoidal sum plus residue correction; Re(z) > 0 required."""
    z = _as_xy(z)
    scalar = z.ndim == 0
    if np.any(np.abs(z) < p.h * _POLE_GUARD):
        raise PoleProximityError("argument within h/1000 of the origin pole")
    if np.any(z.real <= 0):
        raise DomainError("w_mod_trap requires Re(z) > 0")
    return _scalar_out(_rule(np.atleast_1d(z), p, BranchTag.MT).reshape(z.shape), scalar)


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


def _evaluate(z, p: EvalParams, plane: bool, arith: _Arithmetic = _BINARY64):
    """w_N on validated points, in blocks of _BLOCK points; the flat result.

    With ``plane`` false the points lie in the closed first quadrant and
    are evaluated as given.  With ``plane`` true each point is folded to
    |x| + i|y|, evaluated there, and mapped back: conjugated for x < 0 in
    the upper half-plane, reflected through w(z) = 2 e^{-z^2} - w(-z) in the
    lower one.  Only one block's temporaries are alive at a time.
    """
    zf = z.reshape(-1)
    out = arith.empty(zf.size)
    for i in range(0, zf.size, _BLOCK):
        zb = zf[i:i + _BLOCK]
        ob = out[i:i + _BLOCK]
        if not plane:
            _quadrant1_block(zb, p, ob, arith)
            continue
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
    return _scalar_out(_evaluate(z, p, plane=False).reshape(z.shape), z.ndim == 0)


def w_plane(z, n: int = DEFAULT_N):
    """w_N(z) of order n on the whole complex plane via the quadrant symmetries.

    For Im(z) < 0 the true function grows like exp(y^2 - x^2) and the
    result overflows to a signed infinity once that exceeds binary64 range.
    """
    p = EvalParams(n)
    z = _as_xy(z)
    return _scalar_out(_evaluate(z, p, plane=True).reshape(z.shape), z.ndim == 0)


def erfc_c(z, n: int = DEFAULT_N):
    """Complementary error function erfc(z) = e^{-z^2} w(iz)."""
    z = _as_xy(z)
    scalar = z.ndim == 0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        out = np.exp(-(z * z)) * w_plane(1j * z, n)
    return _scalar_out(np.asarray(out), scalar)


def erf_c(z, n: int = DEFAULT_N):
    """Error function erf(z) = 1 - erfc(z)."""
    res = np.asarray(1.0 - np.asarray(erfc_c(z, n)))
    return _scalar_out(res, np.ndim(z) == 0)


def erfcx_c(z, n: int = DEFAULT_N):
    """Scaled complementary error function e^{z^2} erfc(z) = w(iz)."""
    return w_plane(1j * _as_xy(z), n)


def dawson_real(x, n: int = DEFAULT_N):
    """Dawson's integral for real x: (sqrt(pi)/2) Im w(x), odd in x."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.isnan(x)):
        raise DomainError("NaN input")
    scalar = x.ndim == 0
    w = np.asarray(w_quadrant1(np.abs(x) + 0j, n))
    out = np.copysign(1.0, x) * (math.sqrt(math.pi) / 2.0) * w.imag
    # exact odd extension: D(0) = 0 with the sign of x preserved elsewhere
    out = np.where(x == 0.0, 0.0, out)
    return float(out) if scalar else out


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
