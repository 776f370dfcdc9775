"""Evaluation of F(s) and its s-derivatives.

Backends by coefficient provider:

* constant-one: F(s) = zeta(s), straight Euler-Maclaurin.
* periodic mod q: F(s) = q^(-s) sum_a table[a] zeta(s, a/q), which continues
  the Dirichlet L-series to the whole box.
* cusp-form: truncated Dirichlet series where it converges; for Re s < 1/2
  the reflection F(s) = H(s) F(1-s) is used.  The error estimate stays
  honest about the slow convergence near the critical line, which is why
  that datum is gated as experimental.

Derivatives come from the Cauchy integral over a circle of fixed radius
rho = CAUCHY_RADIUS = 0.25 evaluated by the trapezoid rule on
M = CAUCHY_NODES = 64 nodes, which is spectrally accurate for analytic
integrands:

    F^(j)(s) = j! / (M rho^j) * sum_m F(s + rho e^(i phi_m)) e^(-i j phi_m).

One circle of values serves every order up to the requested maximum, which
the derivative-chain module relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import SelbergDatum
from .context import DEFAULT_CONTEXT, EvalContext
from .errors import DomainError, GeometryError, PoleError, UnsupportedOrderError
from .specfun import hurwitz_zeta, series_terms, tier_chunks

REAL_MIN = -4.0
REAL_MAX = 350.0
IMAG_MAX = 600.0

CAUCHY_RADIUS = 0.25
CAUCHY_NODES = 64

_MAX_DERIV = 12


@dataclass(frozen=True)
class LValue:
    """A function value with an absolute error estimate."""

    s: complex
    value: complex
    est_error: float


def _check_box(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise DomainError("s must be finite")
    if np.any(arr.real < REAL_MIN) or np.any(arr.real > REAL_MAX) or np.any(np.abs(arr.imag) > IMAG_MAX):
        raise DomainError(
            f"s outside the supported box [{REAL_MIN}, {REAL_MAX}] x [-{IMAG_MAX}i, {IMAG_MAX}i]"
        )


def _check_pole(datum: SelbergDatum, arr: np.ndarray) -> None:
    if datum.pole_order and np.any(np.abs(arr - 1.0) < 1e-8):
        raise PoleError(f"{datum.name} has a pole at s = 1")


def _periodic_grid(datum: SelbergDatum, arr: np.ndarray, ctx: EvalContext) -> tuple[np.ndarray, np.ndarray]:
    table = datum.provider.table
    q = len(table)
    vals = np.zeros_like(arr)
    errs = np.zeros(arr.shape, dtype=np.float64)
    for a in range(1, q + 1):
        c = table[a % q]
        if c == 0.0:
            continue
        # pole-subtracted components: the 1/(s-1) parts cancel exactly in a
        # mean-zero character sum, so dropping them keeps s = 1 regular
        v, e = hurwitz_zeta(arr, a / q, 0, ctx, with_error=True, sub_pole=True)
        vals += c * v
        errs += abs(c) * e
    scale = np.exp(-arr * math.log(q))
    return scale * vals, np.abs(scale) * errs


def _cusp_series_grid(datum: SelbergDatum, arr: np.ndarray, ctx: EvalContext) -> tuple[np.ndarray, np.ndarray]:
    lengths = series_terms(arr.imag, ctx, floor=16 * ctx.em_cutoff)
    vals = np.empty_like(arr)
    for idx, n in tier_chunks(lengths):
        logs = np.log(np.arange(1, n + 1, dtype=np.float64))
        ex = np.exp(np.multiply.outer(-arr[idx], logs))
        vals[idx] = (ex * datum.coefficient_block(n)).sum(axis=1)
    # tail estimate: |a(n)| <= d(n), and sum_{n>N} d(n) n^(-sigma) has the
    # closed form  N^(1-sigma) (log N / (sigma-1) + 1/(sigma-1)^2)  for
    # sigma > 1; below that the bound is propagated from sigma = 1.05 and is
    # honest about being large.
    sig = np.minimum(arr.real, 350.0)
    sig_eff = np.maximum(sig, 1.05)
    ln = np.log(lengths)
    tail = np.exp((1.0 - sig_eff) * ln) * (ln / (sig_eff - 1.0) + 1.0 / (sig_eff - 1.0) ** 2)
    slack = np.where(sig < 1.05, np.exp((1.05 - sig) * ln), 1.0)
    errs = tail * slack + 5e-15 * np.abs(vals)
    return vals, errs


def l_value_grid(datum: SelbergDatum, s_arr, ctx: EvalContext | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(values, error estimates) of F over an array of points."""
    ctx = ctx or DEFAULT_CONTEXT
    arr = np.asarray(s_arr, dtype=np.complex128)
    _check_box(arr)
    _check_pole(datum, arr)
    kind = datum.provider.kind
    if kind == "constant-one":
        return hurwitz_zeta(arr, 1.0, 0, ctx, with_error=True)
    if kind == "periodic":
        return _periodic_grid(datum, arr, ctx)
    if kind == "cusp-form":
        vals = np.empty_like(arr)
        errs = np.empty(arr.shape, dtype=np.float64)
        right = arr.real >= 0.5
        if right.any():
            vals[right], errs[right] = _cusp_series_grid(datum, arr[right], ctx)
        if (~right).any():
            # reflect through the functional equation
            from .gamma_factor import fe_factor

            pts = arr[~right]
            mirror, merr = _cusp_series_grid(datum, 1.0 - pts, ctx)
            hvals = np.array([fe_factor(datum, complex(p)) for p in pts])
            vals[~right] = hvals * mirror
            errs[~right] = np.abs(hvals) * merr
        return vals, errs
    raise DomainError(f"no evaluation backend for provider kind {kind!r}")


def l_value(datum: SelbergDatum, s: complex, ctx: EvalContext | None = None) -> LValue:
    """F(s) with an error estimate."""
    v, e = l_value_grid(datum, np.array([complex(s)]), ctx)
    return LValue(complex(s), complex(v[0]), float(e[0]))


def l_derivs_grid(datum: SelbergDatum, s_arr, j_max: int,
                  ctx: EvalContext | None = None) -> tuple[np.ndarray, np.ndarray]:
    """F^(j) for j = 0..j_max over a batch, sharing one Cauchy circle.

    Returns (values, est_errors) with shape (j_max+1, n).  The circle must
    stay inside the evaluation box and away from the pole at s = 1.
    """
    ctx = ctx or DEFAULT_CONTEXT
    if j_max < 0 or j_max > _MAX_DERIV:
        raise UnsupportedOrderError(f"derivative order must lie in 0..{_MAX_DERIV}")
    arr = np.asarray(s_arr, dtype=np.complex128)
    vals0, errs0 = l_value_grid(datum, arr, ctx)
    out = np.empty((j_max + 1,) + arr.shape, dtype=np.complex128)
    est = np.empty((j_max + 1,) + arr.shape, dtype=np.float64)
    out[0] = vals0
    est[0] = errs0
    if j_max == 0:
        return out, est

    rho = CAUCHY_RADIUS
    m_nodes = CAUCHY_NODES
    if np.any(arr.real - rho < REAL_MIN) or np.any(arr.real + rho > REAL_MAX):
        raise GeometryError("differentiation circle leaves the evaluation box")
    if datum.pole_order and np.any(np.abs(arr - 1.0) < rho + 0.05):
        raise GeometryError("differentiation circle too close to the pole at s = 1")

    phi = 2.0 * math.pi * np.arange(m_nodes) / m_nodes
    ring = rho * np.exp(1j * phi)                      # (M,)
    nodes = arr[None, :] + ring[:, None]               # (M, n)
    nv, ne = l_value_grid(datum, nodes.ravel(), ctx)
    nv = nv.reshape(m_nodes, -1)
    ne = ne.reshape(m_nodes, -1)
    mean_err = ne.mean(axis=0)
    for j in range(1, j_max + 1):
        w = np.exp(-1j * j * phi) / m_nodes            # (M,)
        # summed node by node in a fixed order, so each value is the same in
        # any batch (a BLAS product may regroup the sum)
        out[j] = math.factorial(j) / rho ** j * np.cumsum(w[:, None] * nv, axis=0)[-1]
        est[j] = math.factorial(j) / rho ** j * (mean_err + 2e-16 * np.abs(nv).max(axis=0))
    return out, est


def l_derivative(datum: SelbergDatum, s: complex, order: int,
                 ctx: EvalContext | None = None) -> LValue:
    """F^(order)(s) by Cauchy-circle differentiation."""
    vals, errs = l_derivs_grid(datum, np.array([complex(s)]), order, ctx)
    return LValue(complex(s), complex(vals[order, 0]), float(errs[order, 0]))
