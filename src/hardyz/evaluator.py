"""Evaluation of F(s) and its s-derivatives.

Backends by coefficient provider:

* constant-one and periodic mod q share one backend, zeta being q = 1 with
  table (1,): the direct sum  sum_{m <= qN} table[m mod q] m^(-s)  from one
  integer-power table per chunk of points (specfun.power_tables), plus per
  residue class a the Euler-Maclaurin remainder of zeta(s, a/q) at N + a/q,
  scaled by q^(-s).  This continues the Dirichlet series to the whole box.
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
the derivative-chain module relies on; the centres and their nodes are
evaluated in one pass.  Every L-value sizes its own series from its point
alone: a Dirichlet sum takes the shortest length whose Euler-Maclaurin
remainder bound meets its rounding allowance (specfun.series_terms), and
the cusp form, which has no Euler-Maclaurin finish, max(320, ceil|Im s|)
terms (specfun.tier_lengths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import SelbergDatum
from .errors import DomainError, GeometryError, PoleError, UnsupportedOrderError, check_order
from .gamma_factor import REAL_MAX, REAL_MIN, check_box, fe_factor
from .specfun import _EM_CUTOFF, _em_finish, power_tables, series_terms, tier_lengths

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


def _dirichlet_grid(table: tuple[float, ...], arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(s) = sum_m table[m mod q] m^(-s), continued by Euler-Maclaurin per
    residue class: with the direct sum over m <= q N,

        F(s) = sum_a table[a] [ sum_{m = a mod q} m^(-s) + q^(-s) R(s, N + a/q) ],

    a = 1..q and R the Euler-Maclaurin remainder of zeta(s, a/q) after its
    first N terms.  Zeta is q = 1 with table (1,).  The direct sums of all
    classes come from one integer-power table per chunk of points.
    """
    q = len(table)
    residues = [a for a in range(1, q + 1) if table[a % q] != 0.0]
    # the factors of an m prime to q are prime to q, so a character's table
    # needs no other rows
    units_only = all(math.gcd(a, q) == 1 for a in residues)
    flat = arr.ravel()
    lengths = series_terms(flat)
    main = np.empty((len(residues), flat.size), dtype=np.complex128)
    main_abs = np.empty(main.shape, dtype=np.float64)
    for idx, classes, tab in power_tables(flat, lengths, q, units_only):
        cols = {r: (lo, hi) for r, lo, hi in classes}
        mag = np.abs(tab)
        for i, a in enumerate(residues):
            lo, hi = cols[a % q]
            main[i, idx] = tab[:, lo:hi].sum(axis=1)
            main_abs[i, idx] = mag[:, lo:hi].sum(axis=1)
    # one Euler-Maclaurin pass over every (class, point) pair
    s_rows = np.broadcast_to(flat, main.shape).ravel()
    big = (lengths + np.array([a / q for a in residues])[:, None]).ravel()
    scale = None if q == 1 else np.exp(-s_rows * math.log(q))
    # pole-subtracted remainders: the 1/(s-1) parts cancel exactly in a
    # mean-zero table, so dropping them keeps s = 1 regular
    value, est = _em_finish(s_rows, main.ravel(), main_abs.ravel(), big, 0, sum(table) == 0.0, scale)
    vals = np.zeros_like(flat)
    errs = np.zeros(flat.shape, dtype=np.float64)
    for a, v, e in zip(residues, value.reshape(main.shape), est.reshape(main.shape)):
        vals += table[a % q] * v
        errs += abs(table[a % q]) * e
    return vals.reshape(arr.shape), errs.reshape(arr.shape)


def _cusp_series_grid(datum: SelbergDatum, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lengths = tier_lengths(arr.imag, floor=16 * _EM_CUTOFF)
    vals = np.empty_like(arr)
    for idx, _, tab in power_tables(arr, lengths):
        vals[idx] = (tab * datum.coefficient_block(tab.shape[1])).sum(axis=1)
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


def l_value_grid(datum: SelbergDatum, s_arr) -> tuple[np.ndarray, np.ndarray]:
    """(values, error estimates) of F over an array of points."""
    arr = np.asarray(s_arr, dtype=np.complex128)
    check_box(arr)
    _check_pole(datum, arr)
    kind = datum.provider.kind
    if kind in ("constant-one", "periodic"):
        return _dirichlet_grid(datum.provider.table, arr)
    if kind == "cusp-form":
        vals = np.empty_like(arr)
        errs = np.empty(arr.shape, dtype=np.float64)
        right = arr.real >= 0.5
        if right.any():
            vals[right], errs[right] = _cusp_series_grid(datum, arr[right])
        if (~right).any():
            # reflect through the functional equation
            pts = arr[~right]
            mirror, merr = _cusp_series_grid(datum, 1.0 - pts)
            hvals = fe_factor(datum, pts)
            vals[~right] = hvals * mirror
            errs[~right] = np.abs(hvals) * merr
        return vals, errs
    raise DomainError(f"no evaluation backend for provider kind {kind!r}")


def l_value(datum: SelbergDatum, s: complex) -> LValue:
    """F(s) with an error estimate."""
    v, e = l_value_grid(datum, np.array([complex(s)]))
    return LValue(complex(s), complex(v[0]), float(e[0]))


def l_derivs_grid(datum: SelbergDatum, s_arr, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """F^(j) for j = 0..j_max over a batch, sharing one Cauchy circle.

    Returns (values, est_errors) with shape (j_max+1, n).  The circle must
    stay inside the evaluation box and away from the pole at s = 1.  The
    centres and their nodes take one l_value_grid pass.
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
    nodes = arr[None, :] + ring[:, None]               # (M, n)
    vals, errs = l_value_grid(datum, np.concatenate([arr, nodes.ravel()]))
    nv = vals[arr.size:].reshape(m_nodes, -1)
    ne = errs[arr.size:].reshape(m_nodes, -1)
    out = np.empty((j_max + 1,) + arr.shape, dtype=np.complex128)
    est = np.empty((j_max + 1,) + arr.shape, dtype=np.float64)
    out[0] = vals[:arr.size]
    est[0] = errs[:arr.size]
    mean_err = ne.mean(axis=0)
    for j in range(1, j_max + 1):
        w = np.exp(-1j * j * phi) / m_nodes            # (M,)
        # summed node by node in a fixed order, so each value is the same in
        # any batch (a BLAS product may regroup the sum)
        out[j] = math.factorial(j) / rho ** j * np.cumsum(w[:, None] * nv, axis=0)[-1]
        est[j] = math.factorial(j) / rho ** j * (mean_err + 2e-16 * np.abs(nv).max(axis=0))
    return out, est


def l_derivative(datum: SelbergDatum, s: complex, order: int) -> LValue:
    """F^(order)(s) by Cauchy-circle differentiation."""
    vals, errs = l_derivs_grid(datum, np.array([complex(s)]), order)
    return LValue(complex(s), complex(vals[order, 0]), float(errs[order, 0]))
