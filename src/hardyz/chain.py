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

with the sum over a_1 + 2 a_2 + ... + k a_k = k.  The pure power
(-psi/2)^k is the dominant term; the remainder Lambda_k collects the
partitions with a_1 <= k - 2.  The ratios

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
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .catalog import SelbergDatum
from .context import DEFAULT_CONTEXT, EvalContext
from .errors import PrecisionError, UnsupportedOrderError
from .evaluator import l_derivs_grid, l_value_grid
from .gamma_factor import fe_logderiv_grid, theta_grid
from .specfun import log_gamma

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
    if not isinstance(k, (int, np.integer)) or k < 0 or k > cap:
        raise UnsupportedOrderError(f"chain order k must be an integer in 0..{cap}, got {k!r}")


@lru_cache(maxsize=None)
def _partitions(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Multiplicity vectors with sum l*a_l = k, as sparse ((l, a_l), ...)."""
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(remaining: int, max_part: int, acc: tuple[tuple[int, int], ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(min(max_part, remaining), 0, -1):
            for mult in range(remaining // part, 0, -1):
                rec(remaining - part * mult, part - 1, acc + ((part, mult),))

    rec(k, k, ())
    return tuple(out)


def _partition_coeff(k: int, part: tuple[tuple[int, int], ...]) -> float:
    total_mult = sum(a for _, a in part)
    c = Fraction(math.factorial(k)) * Fraction(-1, 2) ** total_mult
    for l, a in part:
        c /= Fraction(math.factorial(a) * math.factorial(l) ** a)
    return float(c)


def coeff_stack_grid(datum: SelbergDatum, s_arr, k: int,
                     ctx: EvalContext | None = None) -> np.ndarray:
    """f_0 .. f_k over a batch of points, shape (k+1, n)."""
    _check_k(k)
    ctx = ctx or DEFAULT_CONTEXT
    arr = np.asarray(s_arr, dtype=np.complex128)
    psis = fe_logderiv_grid(datum, arr, max(k - 1, 0), ctx)
    out = np.zeros((k + 1,) + arr.shape, dtype=np.complex128)
    out[0] = 1.0
    for j in range(1, k + 1):
        acc = np.zeros_like(arr)
        for part in _partitions(j):
            term = np.full(arr.shape, _partition_coeff(j, part), dtype=np.complex128)
            for l, a in part:
                term = term * psis[l - 1] ** a
            acc += term
        out[j] = acc
    return out


def chain_coeff(datum: SelbergDatum, s: complex, k: int,
                ctx: EvalContext | None = None) -> complex:
    """f_k(s), the chain iterate started from 1."""
    stack = coeff_stack_grid(datum, np.array([complex(s)]), k, ctx)
    return complex(stack[k, 0])


def chain_coeff_tail(datum: SelbergDatum, s: complex, k: int,
                     ctx: EvalContext | None = None) -> complex:
    """Lambda_k(s) = f_k(s) - (-psi(s)/2)^k, summed directly.

    Only partitions with a_1 <= k - 2 contribute, so the dominant power is
    never formed and then cancelled.
    """
    _check_k(k)
    ctx = ctx or DEFAULT_CONTEXT
    if k == 0:
        return 0.0 + 0.0j
    arr = np.array([complex(s)])
    psis = fe_logderiv_grid(datum, arr, max(k - 1, 0), ctx)
    acc = 0.0 + 0.0j
    for part in _partitions(k):
        a1 = dict(part).get(1, 0)
        if a1 > k - 2:
            continue
        term = _partition_coeff(k, part) + 0.0j
        for l, a in part:
            term *= complex(psis[l - 1, 0]) ** a
        acc += term
    return acc


def chain_grid(datum: SelbergDatum, s_arr, k: int, ctx: EvalContext | None = None,
               extra: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f stack, F stack, est errors) over a batch; stacks cover 0..k+extra.

    One Cauchy circle supplies every F^(j); the f's reuse one psi stack.
    """
    _check_k(k + extra)
    ctx = ctx or DEFAULT_CONTEXT
    arr = np.asarray(s_arr, dtype=np.complex128)
    top = k + extra
    f = coeff_stack_grid(datum, arr, top, ctx)
    dv, de = l_derivs_grid(datum, arr, top, ctx)
    big_f = np.zeros_like(f)
    est = np.zeros((top + 1,) + arr.shape, dtype=np.float64)
    for j in range(top + 1):
        for i in range(j + 1):
            c = math.comb(j, i)
            big_f[j] += c * f[j - i] * dv[i]
            est[j] += c * np.abs(f[j - i]) * de[i]
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
    f, big_f, _ = chain_grid(datum, arr, k, ctx, extra=1)
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
    tt = np.abs(t)
    s = 0.5 + 1j * tt
    _, big_f, _ = chain_grid(datum, s, k, ctx)
    th, _ = theta_grid(datum, tt, ctx)
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
    logs = s * math.log(datum.q_factor)
    for lam, mu in zip(datum.lambdas, datum.mus):
        logs += (1.0 - k) * log_gamma(lam * s + mu)
        logs -= k * log_gamma(lam * (1.0 - s) + mu)
    if logs.real > 700.0:
        raise PrecisionError("completed value overflows double precision at this t and k")
    pref = (s * (s - 1.0)) ** datum.pole_order
    return pref * complex(np.exp(logs)) * complex(big_f[k, 0])


def center_prefactor(datum: SelbergDatum, t: float, k: int) -> float:
    """Real prefactor g with xi_k(1/2+it) = (-i)^k e^(i arg(omega)/2) g(t) Z^(k)(t)."""
    _check_k(k)
    t = float(t)
    mag = math.log(datum.q_factor) * 0.5
    for lam, mu in zip(datum.lambdas, datum.mus):
        mag += (1.0 - 2.0 * k) * float(log_gamma(lam * 0.5 + mu + 1j * lam * t).real)
    if mag > 700.0:
        raise PrecisionError("prefactor overflows double precision at this t and k")
    sign = (-1.0) ** datum.pole_order
    return sign * (0.25 + t * t) ** datum.pole_order * math.exp(mag)
