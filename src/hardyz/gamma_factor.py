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
which is why an exclusion radius around those real points is enough: psi
is refused within _EXCLUSION_RADIUS of a pole, a fixed constant.

On the critical line H(1/2 + it) = exp(-2 i theta(t)) defines the phase
theta used to fold F into the real function Z.

The gamma factor is read in one place, _log_gamma_sum: L(s) = sum_j
log Gamma(lambda_j s + mu_j) and its s-derivatives, from one walk of
specfun._log_gamma_rows.  H, psi, theta and chain's xi_k are written in L.
On the critical line one walk of the direct arguments gives theta and psi
together (_line_walk), which is how chain._z_stack reads both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import SelbergDatum
from .errors import (DomainError, ExcludedRegionError, PoleError, RangeError,
                     UnsupportedOrderError, check_order)
from .specfun import _MAX_POLYGAMMA, _gamma_poles, _log_gamma_rows


# the supported box: s for every value of F, and 1/2 + it for theta and Z
REAL_MIN = -4.0
REAL_MAX = 350.0
IMAG_MAX = 600.0
# psi and its derivatives are refused within this distance of a pole of psi
_EXCLUSION_RADIUS = 0.1


def check_box(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise DomainError("s must be finite")
    if np.any(arr.real < REAL_MIN) or np.any(arr.real > REAL_MAX) or np.any(np.abs(arr.imag) > IMAG_MAX):
        raise DomainError(
            f"s outside the supported box [{REAL_MIN}, {REAL_MAX}] x [-{IMAG_MAX}i, {IMAG_MAX}i]"
        )


def check_line(t) -> None:
    """Refuse heights t off the box's critical line before any arithmetic on t."""
    if not np.all(np.abs(t) <= IMAG_MAX):  # NaN compares False, without a warning
        raise DomainError(f"t must be finite and in [-{IMAG_MAX}, {IMAG_MAX}]")


@dataclass(frozen=True)
class PhasePoint:
    """Phase of the reflection factor on the critical line."""

    t: float
    theta: float
    theta_prime: float


def _gamma_args(datum: SelbergDatum, s: np.ndarray) -> np.ndarray:
    """lambda_j s + mu_j for every factor j, shape (J,) + s.shape."""
    if not np.all(np.isfinite(s)):
        raise DomainError("s must be finite")
    return np.stack([lam * s + mu for lam, mu in zip(datum.lambdas, datum.mus)])


def psi_pole_distance(datum: SelbergDatum, s) -> np.ndarray:
    """Distance from s to the nearest pole of psi.

    Poles sit where a direct argument lambda_j s + mu_j or a mirror argument
    lambda_j (1-s) + mu_j is a nonpositive integer -n.  The nearest to an
    argument z has n = max(rint(-Re z), 0), |z + n| / lambda_j away in s.
    """
    arr = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    z = _gamma_args(datum, np.stack([arr, 1.0 - arr]))
    n = np.maximum(np.rint(-z.real), 0.0)
    lam = np.reshape(datum.lambdas, (-1,) + (1,) * (z.ndim - 1))
    best = (np.hypot(z.real + n, z.imag) / lam).min(axis=(0, 1))
    return best if np.ndim(s) else best[0]


def check_psi_domain(datum: SelbergDatum, s_arr: np.ndarray) -> None:
    """Refuse non-finite points and points within _EXCLUSION_RADIUS of a
    pole of psi."""
    dist = psi_pole_distance(datum, s_arr)
    bad = dist < _EXCLUSION_RADIUS
    if np.any(bad):
        s0 = np.atleast_1d(s_arr)[np.atleast_1d(bad)][0]
        raise ExcludedRegionError(
            f"s = {s0} lies within {_EXCLUSION_RADIUS} of a pole of psi"
        )


def _log_gamma_sum(datum: SelbergDatum, s: np.ndarray, rows: range) -> np.ndarray:
    """L^(n)(s) = sum_j lambda_j^n (d^n log Gamma)(lambda_j s + mu_j) for n
    in rows, shape (len(rows),) + s.shape, from one walk for every factor
    and row."""
    terms = _log_gamma_rows(_gamma_args(datum, s), rows)
    weights = np.array([[lam ** n for lam in datum.lambdas] for n in rows])
    return (weights.reshape(weights.shape + (1,) * s.ndim) * terms).sum(axis=1)


def fe_factor(datum: SelbergDatum, s):
    """Reflection factor H(s) = omega exp((1-2s) log Q + L(1-s) - L(s)) at a
    point or over an array of points.  Zero where a gamma factor of the
    denominator has a pole; a pole of the numerator raises PoleError naming
    the factor and the pole's index."""
    arr = np.asarray(s, dtype=np.complex128)
    flat = arr.ravel()
    num = _gamma_args(datum, 1.0 - flat)
    if _gamma_poles(num).any():
        p, j = np.argwhere(_gamma_poles(num).T)[0]  # the first such point, its first factor
        z = complex(num[j, p])
        raise PoleError(f"H pole: gamma argument {z} in factor {j}", factor=int(j),
                        index=int(round(-z.real)))
    live = ~_gamma_poles(_gamma_args(datum, flat)).any(axis=0)
    x = flat[live]
    lg = _log_gamma_sum(datum, np.stack([1.0 - x, x]), range(1))[0]
    out = np.zeros_like(flat)
    out[live] = datum.omega * np.exp(lg[0] - lg[1] + (1.0 - 2.0 * x) * math.log(datum.q_factor))
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _psi_rows(datum: SelbergDatum, mirror: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """psi^(m) = -2 log Q [m = 0] - (-1)^m mirror[m] - direct[m] for every
    row m, from the rows L^(m+1) at the mirror point 1 - s and at s."""
    sign = ((-1.0) ** np.arange(direct.shape[0])).reshape((-1,) + (1,) * (direct.ndim - 1))
    out = np.zeros(direct.shape, dtype=np.complex128)
    out[:1] = -2.0 * math.log(datum.q_factor)  # no row 0 when no rows are asked for
    out -= sign * mirror + direct
    return out


def _line_walk(datum: SelbergDatum, t: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """theta(t) and psi^(m)(1/2 + it) for m < k, shape (k,) + t.shape, from
    one walk over the direct arguments lambda_j (1/2 + it) + mu_j for the
    rows L^(0..k).  theta = t log Q + Im L(1/2 + it), less pi/2 when omega
    < 0.  On the line 1 - s is the conjugate of s and, the mu being real, so
    is each mirror argument of its direct one: the mirror rows of psi are the
    conjugates of the direct rows, with the same bits."""
    lg = _log_gamma_sum(datum, 0.5 + 1j * t, range(k + 1))
    theta = t * math.log(datum.q_factor) + lg[0].imag
    if datum.omega < 0:
        theta -= 0.5 * math.pi
    return theta, _psi_rows(datum, lg[1:].conj(), lg[1:])


def fe_logderiv_grid(datum: SelbergDatum, s_arr: np.ndarray, max_order: int) -> np.ndarray:
    """psi(s) and derivatives, rows 0..max_order over a batch of points,
    from one walk over the mirror and direct arguments (see _psi_rows); when
    every point lies on the critical line, the walk over the direct
    arguments alone (see _line_walk)."""
    check_order(max_order, _MAX_POLYGAMMA, UnsupportedOrderError, "psi derivative order")
    arr = np.asarray(s_arr, dtype=np.complex128)
    check_psi_domain(datum, arr)
    if np.all(arr.real == 0.5):
        return _line_walk(datum, arr.imag, max_order + 1)[1]
    rows = range(1, max_order + 2)
    mirror, direct = _log_gamma_sum(datum, np.stack([1.0 - arr, arr]), rows).swapaxes(0, 1)
    return _psi_rows(datum, mirror, direct)


def fe_logderiv(datum: SelbergDatum, s: complex, order: int = 0) -> complex:
    """psi^(order)(s) = (d/ds)^order of H'(s)/H(s)."""
    grid = fe_logderiv_grid(datum, np.array([complex(s)]), order)
    return complex(grid[order, 0])


def theta_grid(datum: SelbergDatum, t_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta(t) and theta'(t) = -psi(1/2 + it)/2 over a real grid, both real
    arrays, from one walk (see _line_walk)."""
    t = np.asarray(t_arr, dtype=np.float64)
    check_line(t)
    theta, psi = _line_walk(datum, t, 1)
    return theta, -0.5 * psi[0].real


def theta(datum: SelbergDatum, t: float) -> PhasePoint:
    """Continuous phase of H on the critical line: H(1/2+it) = exp(-2i theta).

    theta(0) = -arg(omega)/2; for the built-in data (omega = 1) theta(0) = 0.
    theta'(t) = -psi(1/2 + it)/2, real.
    """
    th, tp = theta_grid(datum, np.array([float(t)]))
    return PhasePoint(float(t), float(th[0]), float(tp[0]))


def theta_linear_coeff(datum: SelbergDatum) -> float:
    """C in theta(t) = (d/2) t log(t/2pi) + C t + O(1), from Stirling:
    C = log Q + sum_j lambda_j (log lambda_j - 1) + (d/2) log 2pi."""
    return (math.log(datum.q_factor)
            + sum(l * (math.log(l) - 1.0) for l in datum.lambdas)
            + 0.5 * datum.degree * math.log(2.0 * math.pi))


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
    c1 = theta_linear_coeff(datum) / math.pi
    # half the sum of (gamma argument at s = 1/2) - 1/2 over the factors
    c0 = 0.5 * float(np.sum(_gamma_args(datum, np.float64(0.5)) - 0.5))
    if datum.omega < 0:
        c0 -= 0.5  # -arg(omega)/(2 pi)
    value = (0.5 * d / math.pi) * t * math.log(t / (2.0 * math.pi)) + c1 * t + c0
    if not math.isfinite(value):
        raise RangeError(f"asymptotic counting term overflows at t = {t}")
    return value
