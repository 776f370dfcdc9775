"""The derivative chain behind Z^(k).

Repeated t-differentiation of Z = exp(i theta) F(1/2 + it) is equivalent,
on the s-side, to iterating

    G  |->  G' - (psi/2) G,        psi = H'/H,

starting from F.  Writing F_k for the k-th iterate and f_k for the iterate
started from the constant 1, the central facts used here are

    Z^(k)(t)  =  i^k F_k(1/2 + it) exp(i theta(t)),
    F_k(s)    =  sum_j  C(k, j) f_{k-j}(s) F^(j)(s),
    f_k(s)    =  B_k(x_1, ..., x_k),        x_l = -psi^(l-1)(s)/2,

with B_k the complete Bell polynomial.  Both are jet products (module
jet): the step G -> G' - (psi/2) G is H^(1/2) d/ds H^(-1/2), so f is the
jet of H^(-1/2) over H^(-1/2), jet.exp of x, and the F stack is the
Leibniz product jet.mul(f, (F, F', ...)).  The pure power (-psi/2)^k is the
dominant term of f_k; the remainder Lambda_k collects the monomials of B_k
with at most k - 2 factors x_1.  The ratios

    A_k = f_k / (-psi/2)^k         (-> 1 as |s| grows),
    g_k = F_k / f_k                (-> 1 rightwards)

factor F_k = (-psi/2)^k A_k g_k and quantify how closely the chain tracks
the pure phase power.

The completed form

    xi_k(s) = [s(s-1)]^(m_F) Q^s prod_j Gamma(lambda_j s + mu_j)^(1-k)
              * Gamma(lambda_j (1-s) + mu_j)^(-k) * F_k(s)

is entire and satisfies xi_k(s) = (-1)^k xi_k(1-s); on the critical line
|xi_k(1/2+it)| = |g(t)| |Z^(k)(t)| with the real prefactor g computed by
center_prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jet
from .catalog import SelbergDatum
from .errors import PrecisionError, UnsupportedOrderError, check_order
from .evaluator import l_derivs_grid
from .gamma_factor import (_line_walk, _log_gamma_sum, check_box, check_line,
                           check_psi_domain, fe_logderiv_grid)

_MAX_CHAIN = 8
# |f_k| or |psi/2| at or below this counts as vanishing, and the ratio that
# divides by it is reported as None
_RATIO_FLOOR = 1e-9


@dataclass(frozen=True)
class ChainValue:
    """F_k at one point together with its structural ratios.

    lead_ratio is A_k and tail_ratio is g_k; either is None at points where
    its denominator vanishes to working precision.
    """

    s: complex
    k: int
    coeff: complex            # f_k(s)
    value: complex            # F_k(s)
    lead_ratio: complex | None
    tail_ratio: complex | None
    est_error: float


@dataclass(frozen=True)
class ZDerivative:
    """Z^(k)(t): the real value and the discarded imaginary residual."""

    t: float
    k: int
    value: float
    im_residual: float


def _check_k(k: int, cap: int = _MAX_CHAIN) -> None:
    check_order(k, cap, UnsupportedOrderError, "chain order k")


def coeff_stack_grid(datum: SelbergDatum, s_arr, k: int) -> np.ndarray:
    """f_0 .. f_k over a batch of points, shape (k+1,) + s_arr's shape.

    The jet runs on the raveled points: on a 0-d s its rows would be numpy
    scalars, whose complex multiply rounds differently from the array loop."""
    _check_k(k)
    arr = np.asarray(s_arr, dtype=np.complex128)
    if k == 0:
        # f_0 = 1 needs no psi, but the point must still lie in psi's domain
        check_psi_domain(datum, arr)
        return np.ones((1,) + arr.shape, dtype=np.complex128)
    return jet.exp(-0.5 * fe_logderiv_grid(datum, arr.ravel(), k - 1), k).reshape((k + 1,) + arr.shape)


def chain_coeff(datum: SelbergDatum, s: complex, k: int) -> complex:
    """f_k(s), the chain iterate started from 1."""
    stack = coeff_stack_grid(datum, np.array([complex(s)]), k)
    return complex(stack[k, 0])


def chain_coeff_tail(datum: SelbergDatum, s: complex, k: int) -> complex:
    """Lambda_k(s) = f_k(s) - (-psi(s)/2)^k, summed directly.

    With x_l = -psi^(l-1)/2, f is the product of the pure-power jet
    (1, x_1, x_1^2, ...) and the Bell jet of (0, x_2, x_3, ...).  Lambda_k is
    row k of that product without its term x_1^k B_0, so the dominant power
    x_1^k is never formed and then cancelled.
    """
    _check_k(k)
    x = -0.5 * fe_logderiv_grid(datum, np.array([complex(s)]), max(k - 1, 0))[:, 0]
    # a one-row x is zero in every later row, so its Bell jet is the pure powers
    pure, rest = jet.exp(x[:1], k), jet.exp(np.concatenate(([0j], x[1:])), k)
    return complex(jet.leibniz(pure, rest, k, first=1))


def chain_grid(datum: SelbergDatum, s_arr, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f stack, F stack, est errors) over a batch; stacks cover 0..k.

    One Cauchy circle supplies every F^(j); the f's reuse one psi stack.
    The F stack and the estimates are the Leibniz products of f with the
    F^(j) and of |f| with their error estimates, on the raveled points as
    in coeff_stack_grid, so a 0-d s has the bits of a 1-element batch.
    """
    _check_k(k)
    arr = np.asarray(s_arr, dtype=np.complex128)
    # the box first: psi far outside it is refused with a less useful message
    check_box(arr)
    flat = arr.ravel()
    f = coeff_stack_grid(datum, flat, k)
    dv, de = l_derivs_grid(datum, flat, k)
    shape = (k + 1,) + arr.shape
    return f.reshape(shape), jet.mul(f, dv).reshape(shape), jet.mul(np.abs(f), de).reshape(shape)


def chain_value(datum: SelbergDatum, s: complex, k: int) -> ChainValue:
    """F_k(s) with the structural ratios A_k and g_k."""
    arr = np.array([complex(s)])
    f, big_f, est = chain_grid(datum, arr, k)
    fk = complex(f[k, 0])
    val = complex(big_f[k, 0])
    lead_ratio = None
    if k == 0:
        lead_ratio = 1.0 + 0.0j
    else:
        lead = complex(f[1, 0])  # f_1 = -psi/2
        if abs(lead) > _RATIO_FLOOR:
            lead_ratio = fk / lead ** k
    tail_ratio = val / fk if abs(fk) > _RATIO_FLOOR else None
    return ChainValue(complex(s), int(k), fk, val, lead_ratio, tail_ratio, float(est[k, 0]))


def chain_derivative(datum: SelbergDatum, s: complex, k: int) -> complex:
    """F_k'(s) through the chain identity F_k' = F_{k+1} + (psi/2) F_k."""
    _check_k(k, cap=_MAX_CHAIN - 1)
    arr = np.array([complex(s)])
    f, big_f, _ = chain_grid(datum, arr, k + 1)
    psi0 = -2.0 * complex(f[1, 0])
    return complex(big_f[k + 1, 0]) + 0.5 * psi0 * complex(big_f[k, 0])


def z_grid(datum: SelbergDatum, t_arr, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Z^(k) over a real grid: (values, imaginary residuals), each in the
    shape of t_arr.

    Z^(k) is even for even k and odd for odd k; negative t reduces to |t|.
    """
    _check_k(k)
    t = np.asarray(t_arr, dtype=np.float64)
    check_line(t)
    vals, resid = _z_stack(datum, t.ravel(), k)
    return vals[k].reshape(t.shape), resid[k].reshape(t.shape)


def _z_stack(datum: SelbergDatum, t: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Z^(0) .. Z^(k) on a checked 1-D real grid, shape (k+1, n) each: the
    rotations i^j F_j e^(i theta), with theta and the psi rows of f_1 .. f_k
    from one log Gamma walk (gamma_factor._line_walk) and F^(0..k) from one
    Cauchy circle."""
    tt = np.abs(t)
    s = 0.5 + 1j * tt
    check_psi_domain(datum, s)
    th, psi = _line_walk(datum, tt, k)
    dv, _ = l_derivs_grid(datum, s, k)
    big_f = jet.mul(jet.exp(-0.5 * psi, k), dv)
    phase = np.exp(1j * th)
    w = np.array([(1j) ** j * big_f[j] * phase for j in range(k + 1)])
    parity = np.where(t < 0, (-1.0) ** np.arange(k + 1)[:, None], 1.0)
    return parity * w.real, np.abs(w.imag)


def z_derivative(datum: SelbergDatum, t: float, k: int) -> ZDerivative:
    """Z^(k)(t) as a real number plus the discarded imaginary residual."""
    vals, resid = z_grid(datum, np.array([float(t)]), k)
    return ZDerivative(float(t), int(k), float(vals[0]), float(resid[0]))


def completed_value(datum: SelbergDatum, s: complex, k: int) -> complex:
    """xi_k(s), entire with xi_k(s) = (-1)^k xi_k(1-s)."""
    _check_k(k)
    s = complex(s)
    arr = np.array([s])
    _, big_f, _ = chain_grid(datum, arr, k)
    lg = _log_gamma_sum(datum, np.array([s, 1.0 - s]), range(1))[0]
    logs = s * math.log(datum.q_factor) + (1.0 - k) * lg[0] - k * lg[1]
    if logs.real > 700.0:
        raise PrecisionError("completed value overflows double precision at this t and k")
    pref = (s * (s - 1.0)) ** datum.pole_order
    return pref * complex(np.exp(logs)) * complex(big_f[k, 0])


def center_prefactor(datum: SelbergDatum, t: float, k: int) -> float:
    """Real prefactor g with xi_k(1/2+it) = (-i)^k e^(i arg(omega)/2) g(t) Z^(k)(t)."""
    _check_k(k)
    t = float(t)
    check_line(t)
    lg = _log_gamma_sum(datum, np.array([complex(0.5, t)]), range(1))[0, 0]
    mag = math.log(datum.q_factor) * 0.5 + (1.0 - 2.0 * k) * float(lg.real)
    if mag > 700.0:
        raise PrecisionError("prefactor overflows double precision at this t and k")
    sign = (-1.0) ** datum.pole_order
    return sign * (0.25 + t * t) ** datum.pole_order * math.exp(mag)
