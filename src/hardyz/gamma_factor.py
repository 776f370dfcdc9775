"""Gamma-factor side of the functional equation.

For a datum with completed form Q^s * prod Gamma(lambda_j s + mu_j) * F(s),
the reflection factor is

    H(s) = omega * Q^(1-2s) * prod Gamma(lambda_j (1-s) + mu_j)
                                   / Gamma(lambda_j s + mu_j),

so F(s) = H(s) F(1-s) and H(s) H(1-s) = 1.  Its logarithmic derivative

    psi(s) = H'(s)/H(s)
           = -2 log Q - sum_j lambda_j [digamma(lambda_j(1-s) + mu_j)
                                        + digamma(lambda_j s + mu_j)]

drives the whole derivative chain; higher derivatives follow by
differentiating under the sum.  All poles of psi and its derivatives are
real (at the points where a gamma argument hits a nonpositive integer),
which is why an exclusion radius around those real points is enough.

On the critical line H(1/2 + it) = exp(-2 i theta(t)) defines the phase
theta used to fold F into the real function Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import SelbergDatum
from .context import DEFAULT_CONTEXT, EvalContext
from .errors import (DomainError, ExcludedRegionError, PoleError, RangeError,
                     UnsupportedOrderError)
from .specfun import log_gamma, polygamma

_MAX_PSI_ORDER = 15  # polygamma table supports one more than this


@dataclass(frozen=True)
class PhasePoint:
    """Phase of the reflection factor on the critical line."""

    t: float
    theta: float
    theta_prime: float


def psi_pole_distance(datum: SelbergDatum, s) -> np.ndarray:
    """Distance from s to the nearest pole of psi.

    Poles sit where some lambda_j s + mu_j or lambda_j (1-s) + mu_j is a
    nonpositive integer, i.e. at the real points -(mu_j + n)/lambda_j and
    1 + (mu_j + n)/lambda_j for integer n >= 0.
    """
    arr = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    best = np.full(arr.shape, np.inf)
    x, y = arr.real, arr.imag
    for lam, mu in zip(datum.lambdas, datum.mus):
        # family  p = -(mu+n)/lambda, optimal n near -lambda x - mu
        n0 = np.rint(-lam * x - mu)
        for dn in (-1.0, 0.0, 1.0):
            n = np.maximum(n0 + dn, 0.0)
            p = -(mu + n) / lam
            best = np.minimum(best, np.hypot(x - p, y))
        # family  p = 1 + (mu+n)/lambda, optimal n near lambda (x-1) - mu
        n0 = np.rint(lam * (x - 1.0) - mu)
        for dn in (-1.0, 0.0, 1.0):
            n = np.maximum(n0 + dn, 0.0)
            p = 1.0 + (mu + n) / lam
            best = np.minimum(best, np.hypot(x - p, y))
    return best if np.ndim(s) else best[0]


def check_psi_domain(datum: SelbergDatum, s_arr: np.ndarray, ctx: EvalContext) -> None:
    """Refuse non-finite points and points within ctx.exclusion_radius of a
    pole of psi."""
    if not np.all(np.isfinite(s_arr)):
        raise DomainError("s must be finite")
    dist = psi_pole_distance(datum, s_arr)
    bad = dist < ctx.exclusion_radius
    if np.any(bad):
        s0 = np.atleast_1d(s_arr)[np.atleast_1d(bad)][0]
        raise ExcludedRegionError(
            f"s = {s0} lies within {ctx.exclusion_radius} of a pole of psi"
        )


def fe_factor(datum: SelbergDatum, s: complex, ctx: EvalContext | None = None) -> complex:
    """Reflection factor H(s).  Zero at gamma poles of the denominator side."""
    del ctx
    s = complex(s)
    logsum = 0.0 + 0.0j
    for idx, (lam, mu) in enumerate(zip(datum.lambdas, datum.mus)):
        num = lam * (1.0 - s) + mu
        den = lam * s + mu
        if _is_gamma_pole(num):
            raise PoleError(f"H pole: gamma argument {num} in factor {idx}", factor=idx,
                            index=int(round(-num.real)))
        if _is_gamma_pole(den):
            return 0.0 + 0.0j
        logsum += log_gamma(num) - log_gamma(den)
    logsum += (1.0 - 2.0 * s) * math.log(datum.q_factor)
    return datum.omega * complex(np.exp(logsum))


def _is_gamma_pole(z: complex) -> bool:
    return abs(z.imag) < 1e-12 and abs(z.real - round(z.real)) < 1e-12 and round(z.real) <= 0


def fe_logderiv_grid(datum: SelbergDatum, s_arr: np.ndarray, max_order: int,
                     ctx: EvalContext | None = None) -> np.ndarray:
    """psi(s) and derivatives, rows 0..max_order over a batch of points."""
    ctx = ctx or DEFAULT_CONTEXT
    if max_order < 0 or max_order > _MAX_PSI_ORDER:
        raise UnsupportedOrderError(f"psi derivative order must lie in 0..{_MAX_PSI_ORDER}")
    arr = np.asarray(s_arr, dtype=np.complex128)
    check_psi_domain(datum, arr, ctx)
    out = np.zeros((max_order + 1,) + arr.shape, dtype=np.complex128)
    out[0] = -2.0 * math.log(datum.q_factor)
    for lam, mu in zip(datum.lambdas, datum.mus):
        mirror = lam * (1.0 - arr) + mu
        direct = lam * arr + mu
        for order in range(max_order + 1):
            sign = -1.0 if order % 2 else 1.0
            out[order] -= lam ** (order + 1) * (
                sign * polygamma(order, mirror) + polygamma(order, direct)
            )
    return out


def fe_logderiv(datum: SelbergDatum, s: complex, order: int = 0,
                ctx: EvalContext | None = None) -> complex:
    """psi^(order)(s) = (d/ds)^order of H'(s)/H(s)."""
    grid = fe_logderiv_grid(datum, np.array([complex(s)]), order, ctx)
    return complex(grid[order, 0])


def theta_grid(datum: SelbergDatum, t_arr: np.ndarray,
               ctx: EvalContext | None = None) -> tuple[np.ndarray, np.ndarray]:
    """theta(t) and theta'(t) over a real grid, both real arrays."""
    del ctx
    t = np.asarray(t_arr, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise DomainError("t must be finite")
    theta = t * math.log(datum.q_factor)
    theta_p = np.full(t.shape, math.log(datum.q_factor))
    for lam, mu in zip(datum.lambdas, datum.mus):
        z = lam * 0.5 + mu + 1j * lam * t
        theta += log_gamma(z).imag
        theta_p += lam * polygamma(0, z).real
    if datum.omega < 0:
        theta -= 0.5 * math.pi
    return theta, theta_p


def theta(datum: SelbergDatum, t: float, ctx: EvalContext | None = None) -> PhasePoint:
    """Continuous phase of H on the critical line: H(1/2+it) = exp(-2i theta).

    theta(0) = -arg(omega)/2; for the built-in data (omega = 1) theta(0) = 0.
    theta'(t) = -psi(1/2 + it)/2, real.
    """
    th, tp = theta_grid(datum, np.array([float(t)]), ctx)
    return PhasePoint(float(t), float(th[0]), float(tp[0]))


def theta_asymptotic(datum: SelbergDatum, t: float) -> float:
    """Smooth counting main term theta(t)/pi, valid for t >= 10.

    theta(t)/pi = (d/2pi) t log(t/2pi) + c1 t + c0 + O(1/t) with closed-form
    c1, c0 read off the Stirling expansion of each gamma factor.
    """
    if not math.isfinite(t):
        raise DomainError("t must be finite")
    if t < 10.0:
        raise RangeError("asymptotic counting term requires t >= 10")
    d = datum.degree
    c1 = (math.log(datum.q_factor)
          + sum(l * (math.log(l) - 1.0) for l in datum.lambdas)
          + 0.5 * d * math.log(2.0 * math.pi)) / math.pi
    c0 = 0.5 * sum(0.5 * l + m - 0.5 for l, m in zip(datum.lambdas, datum.mus))
    if datum.omega < 0:
        c0 -= 0.5  # -arg(omega)/(2 pi)
    return (0.5 * d / math.pi) * t * math.log(t / (2.0 * math.pi)) + c1 * t + c0
