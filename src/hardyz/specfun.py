"""Complex special functions on the principal branch.

Everything here is built from two classical tools:

* the Stirling asymptotic series with exact Bernoulli coefficients, applied
  after an upward recurrence shift into the half-plane where the series
  converges to machine accuracy, and
* Euler-Maclaurin summation for the Hurwitz zeta function, differentiated
  term by term in s for the first few s-derivatives.

All entry points accept scalars or numpy arrays of complex and return the
matching shape.  Accuracy target is absolute 1e-13 or better on the domains
the rest of the package uses; see the tests for the measured envelopes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .context import DEFAULT_CONTEXT, EvalContext
from .errors import DomainError, PoleError, UnsupportedOrderError

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Recurrence shift targets.  Re(w) >= 12 makes the B_30 Stirling tail fall
# below 1e-26 even on the imaginary axis direction, so double precision is
# limited by rounding, not truncation.
_SHIFT_REAL = 12.0

_MAX_POLYGAMMA = 16
_MAX_HURWITZ_DERIV = 4
_MAX_BERNOULLI_PAIRS = 15  # table covers B_2 .. B_30

# elements per chunk when evaluating (points x series terms) products
_CHUNK_BUDGET = 4_000_000
# direct-sum lengths above the floor are rounded up to a multiple of this,
# and each distinct length is one direct-sum pass
_TIER = 32


def _bernoulli_exact(n_max: int) -> list[Fraction]:
    """B_0 .. B_{n_max} via the defining recurrence, exact rationals."""
    table = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * table[j]
        table.append(-acc / (m + 1))
    return table


_B_EXACT = _bernoulli_exact(2 * _MAX_BERNOULLI_PAIRS)
# even-index Bernoulli numbers as floats: index i holds B_{2i}, i >= 1
_B_EVEN = np.array([float(_B_EXACT[2 * i]) for i in range(_MAX_BERNOULLI_PAIRS + 1)])

# Stirling series for log Gamma: sum_i B_{2i} / ((2i)(2i-1) w^{2i-1})
_LG_COEF = np.array(
    [float(_B_EXACT[2 * i] / Fraction((2 * i) * (2 * i - 1))) for i in range(1, _MAX_BERNOULLI_PAIRS + 1)]
)


def _pochhammer_tables() -> list[list[np.ndarray]]:
    """Coefficients of (s)_{2i-1} = s(s+1)...(s+2i-2) and its s-derivatives.

    Entry [i][m] is the ascending coefficient array of the m-th derivative,
    i = 1.._MAX_BERNOULLI_PAIRS, m = 0.._MAX_HURWITZ_DERIV.  Exact integer
    arithmetic until the final float conversion.
    """
    out: list[list[np.ndarray]] = [[]]
    for i in range(1, _MAX_BERNOULLI_PAIRS + 1):
        coeffs = [1]
        for r in range(2 * i - 1):
            # multiply polynomial by (s + r)
            nxt = [0] * (len(coeffs) + 1)
            for p, c in enumerate(coeffs):
                nxt[p] += c * r
                nxt[p + 1] += c
            coeffs = nxt
        derivs = []
        cur = coeffs
        for _m in range(_MAX_HURWITZ_DERIV + 1):
            derivs.append(np.array([float(c) for c in cur]))
            cur = [p * c for p, c in enumerate(cur)][1:] or [0]
        out.append(derivs)
    return out


_POCH = _pochhammer_tables()


def _as_complex(z) -> tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=np.complex128)
    return (arr.reshape(1), True) if arr.ndim == 0 else (arr, False)


def _check_gamma_poles(w: np.ndarray) -> None:
    near_real = np.abs(w.imag) < 1e-12
    r = np.rint(w.real)
    on_int = np.abs(w.real - r) < 1e-12
    bad = near_real & on_int & (r <= 0.0)
    if bad.any():
        z0 = w[bad][0]
        raise PoleError(f"gamma pole at z = {z0}")


def log_gamma(z, ctx: EvalContext | None = None):
    """Principal-branch log Gamma, analytic on C minus the cut (-inf, 0].

    Shift upward until Re >= 12, apply Stirling with exact Bernoulli
    coefficients, subtract the accumulated logs.  Each log in the recurrence
    keeps its cut inside (-inf, 0], so the result agrees with the principal
    branch everywhere off the cut.
    """
    del ctx  # accuracy policy is fixed by the table length
    arr, scalar = _as_complex(z)
    _check_gamma_poles(arr)
    w = arr.astype(np.complex128, copy=True)
    acc = np.zeros_like(w)
    while True:
        mask = w.real < _SHIFT_REAL
        if not mask.any():
            break
        acc[mask] -= np.log(w[mask])
        w[mask] += 1.0
    iw2 = 1.0 / (w * w)
    ser = np.zeros_like(w)
    for c in _LG_COEF[::-1]:
        ser = ser * iw2 + c
    ser = ser / w
    out = (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI + ser + acc
    return out[0] if scalar else out


def polygamma(m: int, z, ctx: EvalContext | None = None):
    """psi^(m)(z) for complex z, m = 0 .. 16.

    Upward recurrence psi^(m)(z) = psi^(m)(z+1) - (-1)^m m! z^(-m-1) into
    Re >= 12 + m, then the differentiated Stirling series.
    """
    del ctx
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise DomainError(f"derivative order must be a nonnegative integer, got {m!r}")
    if m > _MAX_POLYGAMMA:
        raise UnsupportedOrderError(f"polygamma order {m} exceeds supported maximum {_MAX_POLYGAMMA}")
    arr, scalar = _as_complex(z)
    _check_gamma_poles(arr)
    w = arr.astype(np.complex128, copy=True)
    acc = np.zeros_like(w)
    target = _SHIFT_REAL + m
    sign_fact = (-1.0) ** m * math.factorial(m)
    while True:
        mask = w.real < target
        if not mask.any():
            break
        acc[mask] -= sign_fact * w[mask] ** (-(m + 1))
        w[mask] += 1.0
    iw = 1.0 / w
    iw2 = iw * iw
    if m == 0:
        ser = np.zeros_like(w)
        for i in range(_MAX_BERNOULLI_PAIRS, 0, -1):
            ser = (ser + _B_EVEN[i] / (2 * i)) * iw2
        head = np.log(w) - 0.5 * iw - ser
    else:
        ser = np.zeros_like(w)
        for i in range(_MAX_BERNOULLI_PAIRS, 0, -1):
            ser = (ser + _B_EVEN[i] * (math.factorial(2 * i + m - 1) / math.factorial(2 * i))) * iw2
        head = iw ** m * (
            math.factorial(m - 1) + 0.5 * math.factorial(m) * iw + ser
        )
        head = head * (-1.0) ** (m - 1)
    out = head + acc
    return out[0] if scalar else out


def series_terms(im, ctx: EvalContext, floor: int = 0) -> np.ndarray:
    """Direct-sum length of each point: ctx.em_terms(|Im s|), at least floor,
    rounded up to base + a multiple of _TIER with base = max(em_cutoff,
    floor).  Each length follows its own point only, so a value never
    depends on the batch it is computed in."""
    base = max(ctx.em_cutoff, floor)
    excess = np.maximum(np.ceil(ctx.em_scale * np.abs(im)) - base, 0.0)
    return base + _TIER * np.ceil(excess / _TIER).astype(np.int64)


def tier_chunks(lengths: np.ndarray):
    """(indices, n) for the points of each series length n, in chunks of at
    most _CHUNK_BUDGET point-terms."""
    # a set, not np.unique, whose first call imports numpy.ma (~11 ms per process)
    for n in sorted(set(lengths.tolist())):
        idx = np.flatnonzero(lengths == n)
        step = max(1, _CHUNK_BUDGET // n)
        for lo in range(0, idx.size, step):
            yield idx[lo:lo + step], n


def _direct_sum(s: np.ndarray, a: float, j: int, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_{n < n_terms} (n+a)^(-s) (-log(n+a))^j and the sum of the term moduli."""
    logs = np.log(np.arange(n_terms, dtype=np.float64) + a)
    ex = np.exp(np.multiply.outer(-s, logs))
    if j:
        ex = ex * (-logs) ** j
    return ex.sum(axis=1), np.abs(ex).sum(axis=1)


def _em_finish(s: np.ndarray, main: np.ndarray, big: np.ndarray, j: int, k_bern: int,
               sub_pole: bool) -> tuple[np.ndarray, np.ndarray]:
    """Add the Euler-Maclaurin tail, half term and Bernoulli corrections to
    the direct sums main.

    big holds each point's N + a, the first abscissa left out of its direct
    sum.  Returns (value, last Bernoulli term).  With sub_pole the
    analytic pole part d^j/ds^j (s-1)^(-1) is removed, which makes the
    result entire; sums of such values over a character with mean zero
    reproduce the L-function exactly.
    """
    lb = np.log(big)
    decay = np.exp(-s * lb)  # big^(-s)

    # d^j/ds^j of big^(1-s) / (s-1), Leibniz over the two factors.  With
    # sub_pole the pole part d^j/ds^j (s-1)^(-1) is subtracted, which leaves
    # (big^(1-s) - 1)/(s-1), entire in s; near its removed singularity the
    # difference cancels, so there the Taylor series in (1-s) replaces it
    # and the direct form runs on a stand-in s - 1 = 1.
    sm1 = s - 1.0
    near = np.abs(-sm1 * lb) <= 4.0 if sub_pole else np.zeros(s.shape, dtype=bool)
    sm1 = np.where(near, 1.0, sm1)
    tail = sum(math.comb(j, i) * ((-lb) ** i * big * decay)
               * ((-1.0) ** (j - i) * math.factorial(j - i) * sm1 ** (-(j - i) - 1))
               for i in range(j + 1))
    if sub_pole:
        tail -= (-1.0) ** j * math.factorial(j) * sm1 ** (-j - 1)
    if np.any(near):
        u = 1.0 - s[near]  # (1-s), |u * lb| <= 4
        ln = lb[near]
        acc = np.zeros_like(u)
        for r in range(40, j - 1, -1):
            c = (math.factorial(r) / (math.factorial(r - j) * math.factorial(r + 1))) * ln ** (r + 1)
            acc = acc * u + c
        tail[near] = -((-1.0) ** j) * acc

    half = 0.5 * (-lb) ** j * decay

    bern = np.zeros_like(s)
    last = np.zeros_like(s)
    for i in range(1, k_bern + 1):
        poly = np.zeros_like(s)
        for mdx in range(j + 1):
            pv = np.polynomial.polynomial.polyval(s, _POCH[i][mdx])
            poly += math.comb(j, mdx) * pv * (-lb) ** (j - mdx)
        term = (_B_EVEN[i] / math.factorial(2 * i)) * poly * decay * big ** (1 - 2 * i)
        bern += term
        if i == k_bern:
            last = term
    return main + tail + half + bern, last


def hurwitz_zeta(s, a: float = 1.0, deriv: int = 0, ctx: EvalContext | None = None,
                 with_error: bool = False, sub_pole: bool = False):
    """d^deriv/ds^deriv of the Hurwitz zeta function zeta(s, a).

    a is a scalar in (0, 1], deriv = 0 .. 4.  Accepts scalar or array s;
    s = 1 is a pole and points within 1e-8 of it are rejected.  With
    with_error=True returns (value, est_error).  With sub_pole=True the
    pole part d^deriv/ds^deriv 1/(s-1) is subtracted, giving an entire
    function that is valid at s = 1 as well.

    Each point sums series_terms(Im s) direct terms, em_scale * |Im s|
    rounded up to a tier of _TIER terms above em_cutoff, so its value is a
    function of (s, a, deriv, ctx) alone.  The error estimate is four times
    the last Bernoulli correction plus a rounding allowance for the direct
    sum.
    """
    ctx = ctx or DEFAULT_CONTEXT
    if not isinstance(deriv, (int, np.integer)) or deriv < 0:
        raise DomainError(f"deriv must be a nonnegative integer, got {deriv!r}")
    if deriv > _MAX_HURWITZ_DERIV:
        raise UnsupportedOrderError(f"hurwitz_zeta supports s-derivatives up to {_MAX_HURWITZ_DERIV}")
    if not (0.0 < a <= 1.0):
        raise DomainError(f"shift parameter a must lie in (0, 1], got {a}")
    arr, scalar = _as_complex(s)
    if not sub_pole and np.any(np.abs(arr - 1.0) < 1e-8):
        raise PoleError("hurwitz_zeta pole at s = 1")

    flat = arr.ravel()
    lengths = series_terms(flat.imag, ctx)
    main = np.empty_like(flat)
    main_abs = np.empty(flat.shape, dtype=np.float64)
    for idx, n in tier_chunks(lengths):
        main[idx], main_abs[idx] = _direct_sum(flat[idx], float(a), int(deriv), n)
    value, last = _em_finish(flat, main, lengths + float(a), int(deriv), ctx.em_bernoulli, sub_pole)
    # roundoff allowance calibrated against high-precision references: the
    # direct sum loses ~5e-15 of its absolute-value mass, plus phase
    # reduction error ~ eps * |Im s| per oscillating term
    est = (4.0 * np.abs(last)
           + (5e-15 + 2e-16 * np.abs(flat.imag)) * main_abs
           + 1e-15 * np.abs(value))
    vals, errs = value.reshape(arr.shape), est.reshape(arr.shape)
    if scalar:
        return (vals[0], float(errs[0])) if with_error else vals[0]
    return (vals, errs) if with_error else vals
