"""Evaluation of F(s) and its s-derivatives.

Values come from the datum's coefficient provider (catalog), after the
checks every point shares: the evaluation box and the pole at s = 1.

Derivatives come from the Cauchy integral over a circle of fixed radius
rho = CAUCHY_RADIUS = 0.25 evaluated by the trapezoid rule on
M = CAUCHY_NODES = 64 nodes, which is spectrally accurate for analytic
integrands:

    F^(j)(s) = j! / (M rho^j) * sum_m F(s + rho e^(i phi_m)) e^(-i j phi_m).

One circle of values serves every order up to the requested maximum, which
the derivative-chain module relies on; the centres and their nodes are
evaluated in one pass.  Every L-value sizes its own series from its point
alone, so a value has the same bits in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import SelbergDatum
from .errors import DomainError, GeometryError, PoleError, UnsupportedOrderError, check_order
from .gamma_factor import REAL_MAX, REAL_MIN, check_box

CAUCHY_RADIUS = 0.25
CAUCHY_NODES = 64

_MAX_DERIV = 12


@dataclass(frozen=True)
class LValue:
    """A function value with an absolute error estimate."""

    s: complex
    value: complex
    est_error: float


def _check_pole(datum: SelbergDatum, arr: np.ndarray) -> None:
    if datum.pole_order and np.any(np.abs(arr - 1.0) < 1e-8):
        raise PoleError(f"{datum.name} has a pole at s = 1")


def l_value_grid(datum: SelbergDatum, s_arr) -> tuple[np.ndarray, np.ndarray]:
    """(values, error estimates) of F over an array of points."""
    arr = np.asarray(s_arr, dtype=np.complex128)
    check_box(arr)
    _check_pole(datum, arr)
    values = getattr(datum.provider, "values", None)
    if values is None:
        raise DomainError(f"no evaluation backend for provider {type(datum.provider).__name__}")
    return values(datum, arr)


def l_value(datum: SelbergDatum, s: complex) -> LValue:
    """F(s) with an error estimate."""
    v, e = l_value_grid(datum, np.array([complex(s)]))
    return LValue(complex(s), complex(v[0]), float(e[0]))


def l_derivs_grid(datum: SelbergDatum, s_arr, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """F^(j) for j = 0..j_max over a batch, sharing one Cauchy circle.

    Returns (values, est_errors), each of shape (j_max+1,) + s_arr's shape.
    The circle must stay inside the evaluation box and away from the pole at
    s = 1.  The centres and their nodes take one l_value_grid pass.
    """
    check_order(j_max, _MAX_DERIV, UnsupportedOrderError, "derivative order")
    arr = np.asarray(s_arr, dtype=np.complex128)
    if j_max == 0:
        vals, errs = l_value_grid(datum, arr)
        return vals[None], errs[None]

    # a centre's own box or pole error comes before the circle's
    check_box(arr)
    _check_pole(datum, arr)
    rho = CAUCHY_RADIUS
    m_nodes = CAUCHY_NODES
    if np.any(arr.real - rho < REAL_MIN) or np.any(arr.real + rho > REAL_MAX):
        raise GeometryError("differentiation circle leaves the evaluation box")
    if datum.pole_order and np.any(np.abs(arr - 1.0) < rho + 0.05):
        raise GeometryError("differentiation circle too close to the pole at s = 1")

    phi = 2.0 * math.pi * np.arange(m_nodes) / m_nodes
    ring = rho * np.exp(1j * phi)                      # (M,)
    flat = arr.ravel()
    nodes = flat[None, :] + ring[:, None]              # (M, n)
    vals, errs = l_value_grid(datum, np.concatenate([flat, nodes.ravel()]))
    nv = vals[flat.size:].reshape(m_nodes, -1)
    ne = errs[flat.size:].reshape(m_nodes, -1)
    out = np.empty((j_max + 1, flat.size), dtype=np.complex128)
    est = np.empty((j_max + 1, flat.size), dtype=np.float64)
    out[0] = vals[:flat.size]
    est[0] = errs[:flat.size]
    # every sum over the nodes runs node by node in a fixed order, so each
    # value and estimate is the same in any batch: a BLAS product may regroup
    # the sum, and mean() sums one column pairwise but many row by row
    mean_err = np.cumsum(ne, axis=0)[-1] / m_nodes
    for j in range(1, j_max + 1):
        w = np.exp(-1j * j * phi) / m_nodes            # (M,)
        out[j] = math.factorial(j) / rho ** j * np.cumsum(w[:, None] * nv, axis=0)[-1]
        est[j] = math.factorial(j) / rho ** j * (mean_err + 2e-16 * np.abs(nv).max(axis=0))
    shape = (j_max + 1,) + arr.shape
    return out.reshape(shape), est.reshape(shape)


def l_derivative(datum: SelbergDatum, s: complex, order: int) -> LValue:
    """F^(order)(s) by Cauchy-circle differentiation."""
    vals, errs = l_derivs_grid(datum, np.array([complex(s)]), order)
    return LValue(complex(s), complex(vals[order, 0]), float(errs[order, 0]))
