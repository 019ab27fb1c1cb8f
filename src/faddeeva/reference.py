"""Competitor evaluators used for accuracy/timing comparisons.

Three well-known alternatives to the quadrature-based evaluator in
:mod:`faddeeva.core`:

* a Laplace continued-fraction convergent (accurate for large ``|z|``),
* a rational approximation in the Möbius variable ``(L+iz)/(L-iz)`` with
  coefficients fitted against the extended-precision oracle,
* a trapezoidal-flavoured real/imaginary split with five auxiliary sums.

Each raises DomainError for a NaN component, as `w` does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import core
from .ddouble import DD, DDComplex, PI, SQRT_PI, dd_sincos, ddc_sum
from .errors import ConstructionError, DomainError, EvaluationError

__all__ = [
    "cf_convergent",
    "WeidemanModel",
    "weideman_fit_coeffs",
    "weideman_eval",
    "ZaghloulParams",
    "zaghloul_eval",
]

_SQRT_PI = float(np.sqrt(np.pi))


# ---------------------------------------------------------------------------
# Laplace continued fraction
# ---------------------------------------------------------------------------

def cf_convergent(z, n: int = 9):
    """n-th convergent of the Laplace continued fraction for w(z).

    Evaluates (i/sqrt(pi)) / (z - (1/2)/(z - (2/2)/(z - ...))) by backward
    recurrence.  Intended for ``|z| >= 8``; near the real axis at small
    ``|z|`` the recurrence can hit a zero denominator.
    """
    if n < 1:
        raise ValueError("convergent index must be >= 1")
    z = core._as_xy(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    r = z.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(n - 1, 0, -1):
            r = z - (0.5 * m) / r
        out = (1j / _SQRT_PI) / r
    if not np.all(np.isfinite(out)):
        raise EvaluationError("continued-fraction recurrence hit a zero denominator")
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# Rational approximation in the Möbius variable
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeidemanModel:
    """Fitted rational model w(z) ~ 1/(sqrt(pi)(L-iz)) + 2/(L-iz)^2 * P(Z).

    ``coeffs[k]`` multiplies ``Z**k`` with ``Z = (L+iz)/(L-iz)``;
    ``l`` is the scale ``2**(-1/4) * sqrt(n)``.
    """

    n: int
    l: float
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        if self.coeffs.shape != (self.n,):
            raise ValueError("coefficient count must equal the model order")


def weideman_fit_coeffs(n: int, oracle=None) -> WeidemanModel:
    """Fit the rational-model coefficients by Fourier analysis on |Z| = 1.

    Samples ``g(Z) = (L-iz)^2 (w(z) - 1/(sqrt(pi)(L-iz)))/2`` at 2n
    equispaced points on the unit circle (equivalently z = L*tan(theta/2)
    real), takes discrete Fourier coefficients, and keeps their real parts.
    ``oracle`` maps a real array to its w values as a DDComplex; defaults to
    the order-20 double-double evaluator.
    """
    if n < 8:
        raise ValueError("model order must be >= 8")
    if oracle is None:
        from .oracle import w_oracle as oracle

    ell = 2.0 ** (-0.25) * np.sqrt(n)
    m = 2 * n
    theta = np.pi * (2.0 * np.arange(m) + 1.0) / m
    zs = ell * np.tan(0.5 * theta)

    wv = oracle(zs)

    # g = d^2 * (w - 1/(sqrt(pi) d)) / 2 with d = L - iz, in double-double to
    # absorb the cancellation between w and its leading term at large |z|.
    d = DDComplex(DD(np.full(m, ell)), DD(-zs))
    lead = 1.0 / (d * DD.from_pair(SQRT_PI))
    g = (d * d * (wv - lead)) * 0.5
    # c_k = (1/m) sum_j g(Z_j) Z_j^{-k},  Z_j = e^{i theta_j}; the sums are
    # accumulated in double-double (a float64 reduction here costs ~1e-14
    # in the coefficients, which dominates the model's final accuracy).
    coeffs = np.empty(n)
    worst_imag = 0.0
    j2 = 2 * np.arange(m) + 1
    for k in range(n):
        # exact phase reduction: Z_j^{-k} = exp(-i pi (k(2j+1) mod 2m)/m)
        r = (k * j2) % (2 * m)
        ang = DD.from_pair(PI) * DD(r.astype(np.float64)) / float(m)
        sin_a, cos_a = dd_sincos(ang)
        ck = ddc_sum(g * DDComplex(cos_a, -sin_a))
        coeffs[k] = (ck.re.hi + ck.re.lo) / m
        worst_imag = max(worst_imag, abs(ck.im.hi) / m)
    if worst_imag > 1e-13:
        raise ConstructionError("fitted coefficients are not real to tolerance")

    model = WeidemanModel(n=n, l=ell, coeffs=coeffs)
    resid = np.max(np.abs(weideman_eval(zs, model) - wv.to_complex()))
    if resid > 1e-14:
        raise ConstructionError(f"fit residual {resid:.3e} exceeds 1e-14")
    return model


@functools.lru_cache(maxsize=8)
def default_weideman_model(n: int = 40) -> WeidemanModel:
    """Return (and cache) the standard fitted model of the given order."""
    return weideman_fit_coeffs(n)


def weideman_eval(z, m: WeidemanModel):
    """Evaluate the fitted rational model; valid for Im(z) >= 0."""
    z = core._as_xy(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.any(z.imag < 0.0):
        raise DomainError("rational model is only valid in the closed upper half-plane")
    d = m.l - 1j * z
    big_z = (m.l + 1j * z) / d
    acc = np.zeros_like(z)
    for a in m.coeffs[::-1]:
        acc = acc * big_z + a
    out = 1.0 / (_SQRT_PI * d) + (2.0 / (d * d)) * acc
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# Real/imaginary split with auxiliary sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZaghloulParams:
    """Spacing and truncation for the five auxiliary sums."""

    a: float = 0.5
    terms: int = 38

    def __post_init__(self):
        if not (self.a > 0.0):
            raise ValueError("spacing must be positive")
        if self.terms < 1:
            raise ValueError("truncation count must be >= 1")


def _sum_terms(x, y, a, ks):
    """Per-k term banks for the five sums; x, y broadcast against ks."""
    ak = a * ks
    den = 1.0 / (ak * ak + y * y)
    e0 = np.exp(-(ak * ak + x * x))
    ep = np.exp(-((ak + x) ** 2))
    em = np.exp(-((ak - x) ** 2))
    return den * e0, den * ep, den * em, ak * den * ep, ak * den * em


def _sums_vec(x, y, p: ZaghloulParams):
    """Vectorized S1..S5 over arrays x, y >= 0 (shapes broadcastable)."""
    a = p.a
    kk = p.terms
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x, y = np.broadcast_arrays(x, y)
    shape = x.shape
    xf = x.ravel()
    yf = y.ravel()

    ks = np.arange(1.0, kk + 1.0)
    with np.errstate(under="ignore"):
        banks = _sum_terms(xf[:, None], yf[:, None], a, ks[None, :])
        sums = [b.sum(axis=1) for b in banks]

        # The e^{-(ak-x)^2} factor peaks near k ~ x/a; for x beyond the base
        # range add a window of 2*terms+1 indices centred there.
        k0 = np.rint(xf / a)
        far = k0 > kk - 9.0 / a  # base range covers ak - x >= ~9 otherwise
        if np.any(far):
            xi = xf[far, None]
            yi = yf[far, None]
            kw = k0[far, None] + np.arange(-kk, kk + 1.0)[None, :]
            valid = kw > kk  # skip indices already in the base range
            kw = np.where(valid, kw, 1.0)
            wb = _sum_terms(xi, yi, a, kw)
            for j in range(5):
                sums[j][far] += np.where(valid, wb[j], 0.0).sum(axis=1)

    return [s.reshape(shape) for s in sums]


def zaghloul_eval(z, p: ZaghloulParams = ZaghloulParams()):
    """Evaluate w(z) = u + iv from the real/imaginary split; first quadrant only."""
    z = core._as_xy(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    x = z.real.copy()
    y = z.imag.copy()
    if np.any(x < 0.0) or np.any(y < 0.0):
        raise DomainError("evaluator requires Re(z) >= 0 and Im(z) >= 0")

    s1, s2, s3, s4, s5 = _sums_vec(x, y, p)
    a = p.a
    with np.errstate(under="ignore"):
        ex2 = np.exp(-x * x)
        ecx = np.real(core.erfcx_c(y + 0j))
        c2 = np.cos(2.0 * x * y)
        s2xy = np.sin(2.0 * x * y)

        ypos = y > 0.0
        ysafe = np.where(ypos, y, 1.0)
        # removable-singularity terms: replaced by their y -> 0 limits
        u_sing = np.where(
            ypos, 2.0 * a * np.sin(x * y) ** 2 / (np.pi * ysafe) * ex2, 0.0
        )
        v_sing = np.where(
            ypos,
            a * s2xy / (np.pi * ysafe) * ex2,
            (2.0 * a / np.pi) * x * ex2,
        )

        u = ex2 * ecx * c2 + u_sing + (a * y / np.pi) * (-2.0 * c2 * s1 + s2 + s3)
        v = -ex2 * ecx * s2xy + v_sing + (a / np.pi) * (2.0 * y * s2xy * s1 - s4 + s5)

    out = u + 1j * v
    return out[0] if scalar else out
