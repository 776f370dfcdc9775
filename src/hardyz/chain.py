"""The derivative chain behind Z^(k).

Repeated t-differentiation of Z = exp(i theta) F(1/2 + it) is equivalent,
on the s-side, to iterating

    G  |->  G' - (psi/2) G,        psi = H'/H,

starting from F.  Writing F_k for the k-th iterate and f_k for the iterate
started from the constant 1, the central facts used here are

    Z^(k)(t)  =  i^k F_k(1/2 + it) exp(i theta(t)),
    F_k(s)    =  sum_j  C(k, j) f_{k-j}(s) F^(j)(s),
    f_k(s)    =  k! sum  (-1/2)^(a_1+...+a_k)
                 prod_l  (1/a_l!) (psi^(l-1)(s) / l!)^(a_l)

with the sum over a_1 + 2 a_2 + ... + k a_k = k.  This is the complete
Bell polynomial B_k(x_1, ..., x_k) in x_l = -psi^(l-1)/2, computed by the
recurrence B_{n+1} = sum_i C(n, i) x_{i+1} B_{n-i} rather than over
partitions.  The pure power (-psi/2)^k is the dominant term; the remainder
Lambda_k collects the partitions with a_1 <= k - 2.  The ratios

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

from .catalog import SelbergDatum
from .context import DEFAULT_CONTEXT, EvalContext
from .errors import PrecisionError, UnsupportedOrderError, check_order
from .evaluator import l_derivs_grid
from .gamma_factor import (_log_gamma_sum, check_box, check_line, check_psi_domain,
                           fe_logderiv_grid, theta_grid)

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


def _binomial_sum(b, a, n: int):
    """sum_{i=0..n} C(n, i) b[n-i] a[i]: the Leibniz rule for (b a)^(n),
    and with a[i] = x_{i+1} the Bell recurrence."""
    return sum(math.comb(n, i) * b[n - i] * a[i] for i in range(n + 1))


def _bell_stack(x: np.ndarray, k: int) -> np.ndarray:
    """B_0 .. B_k in x_l = x[l-1] by B_{n+1} = sum_i C(n, i) B_{n-i} x_{i+1}."""
    out = np.empty((k + 1,) + x.shape[1:], dtype=np.complex128)
    out[0] = 1.0
    for n in range(k):
        out[n + 1] = _binomial_sum(out, x, n)
    return out


def coeff_stack_grid(datum: SelbergDatum, s_arr, k: int,
                     ctx: EvalContext | None = None) -> np.ndarray:
    """f_0 .. f_k over a batch of points, shape (k+1, n)."""
    _check_k(k)
    ctx = ctx or DEFAULT_CONTEXT
    arr = np.asarray(s_arr, dtype=np.complex128)
    if k == 0:
        # f_0 = 1 needs no psi, but the point must still lie in psi's domain
        check_psi_domain(datum, arr, ctx)
        return np.ones((1,) + arr.shape, dtype=np.complex128)
    return _bell_stack(-0.5 * fe_logderiv_grid(datum, arr, k - 1, ctx), k)


def chain_coeff(datum: SelbergDatum, s: complex, k: int,
                ctx: EvalContext | None = None) -> complex:
    """f_k(s), the chain iterate started from 1."""
    stack = coeff_stack_grid(datum, np.array([complex(s)]), k, ctx)
    return complex(stack[k, 0])


def chain_coeff_tail(datum: SelbergDatum, s: complex, k: int,
                     ctx: EvalContext | None = None) -> complex:
    """Lambda_k(s) = f_k(s) - (-psi(s)/2)^k, summed directly.

    With x_l = -psi^(l-1)/2, Lambda_1 = 0 and the Bell recurrence gives
    Lambda_{n+1} = x_1 Lambda_n + sum_{i >= 1} C(n, i) x_{i+1} f_{n-i}, so
    the dominant power x_1^k is never formed and then cancelled.
    """
    _check_k(k)
    ctx = ctx or DEFAULT_CONTEXT
    x = -0.5 * fe_logderiv_grid(datum, np.array([complex(s)]), max(k - 1, 0), ctx)
    f = _bell_stack(x, k)
    tail = np.zeros(1, dtype=np.complex128)
    for n in range(1, k):
        tail = _binomial_sum(list(f[:n]) + [tail], x, n)
    return complex(tail[0])


def chain_grid(datum: SelbergDatum, s_arr, k: int,
               ctx: EvalContext | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f stack, F stack, est errors) over a batch; stacks cover 0..k.

    One Cauchy circle supplies every F^(j); the f's reuse one psi stack.
    """
    _check_k(k)
    ctx = ctx or DEFAULT_CONTEXT
    arr = np.asarray(s_arr, dtype=np.complex128)
    # the box first: psi far outside it is refused with a less useful message
    check_box(arr)
    f = coeff_stack_grid(datum, arr, k, ctx)
    dv, de = l_derivs_grid(datum, arr, k, ctx)
    big_f = np.array([_binomial_sum(f, dv, j) for j in range(k + 1)])
    abs_f = np.abs(f)
    est = np.array([_binomial_sum(abs_f, de, j) for j in range(k + 1)])
    return f, big_f, est


def chain_value(datum: SelbergDatum, s: complex, k: int,
                ctx: EvalContext | None = None) -> ChainValue:
    """F_k(s) with the structural ratios A_k and g_k."""
    ctx = ctx or DEFAULT_CONTEXT
    arr = np.array([complex(s)])
    f, big_f, est = chain_grid(datum, arr, k, ctx)
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


def chain_derivative(datum: SelbergDatum, s: complex, k: int,
                     ctx: EvalContext | None = None) -> complex:
    """F_k'(s) through the chain identity F_k' = F_{k+1} + (psi/2) F_k."""
    _check_k(k, cap=_MAX_CHAIN - 1)
    ctx = ctx or DEFAULT_CONTEXT
    arr = np.array([complex(s)])
    f, big_f, _ = chain_grid(datum, arr, k + 1, ctx)
    psi0 = -2.0 * complex(f[1, 0])
    return complex(big_f[k + 1, 0]) + 0.5 * psi0 * complex(big_f[k, 0])


def z_grid(datum: SelbergDatum, t_arr, k: int,
           ctx: EvalContext | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Z^(k) over a real grid: (values, imaginary residuals).

    Z^(k) is even for even k and odd for odd k; negative t reduces to |t|.
    """
    _check_k(k)
    ctx = ctx or DEFAULT_CONTEXT
    t = np.asarray(t_arr, dtype=np.float64)
    check_line(t)
    tt = np.abs(t)
    s = 0.5 + 1j * tt
    _, big_f, _ = chain_grid(datum, s, k, ctx)
    th, _ = theta_grid(datum, tt)
    w = (1j) ** k * big_f[k] * np.exp(1j * th)
    parity = np.where(t < 0, (-1.0) ** k, 1.0)
    return parity * w.real, np.abs(w.imag)


def z_derivative(datum: SelbergDatum, t: float, k: int,
                 ctx: EvalContext | None = None) -> ZDerivative:
    """Z^(k)(t) as a real number plus the discarded imaginary residual."""
    vals, resid = z_grid(datum, np.array([float(t)]), k, ctx)
    return ZDerivative(float(t), int(k), float(vals[0]), float(resid[0]))


def completed_value(datum: SelbergDatum, s: complex, k: int,
                    ctx: EvalContext | None = None) -> complex:
    """xi_k(s), entire with xi_k(s) = (-1)^k xi_k(1-s)."""
    _check_k(k)
    ctx = ctx or DEFAULT_CONTEXT
    s = complex(s)
    arr = np.array([s])
    _, big_f, _ = chain_grid(datum, arr, k, ctx)
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
