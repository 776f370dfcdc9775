"""Complex special functions on the principal branch.

Everything here is built from three classical tools:

* the Stirling asymptotic series with exact Bernoulli coefficients, applied
  after an upward recurrence shift into the part of the right half-plane
  where its remainder bound is far below rounding; one walk
  (_log_gamma_rows) serves log Gamma and every psi^(m) at once,
* Euler-Maclaurin summation for the Hurwitz zeta function, differentiated
  term by term in s for the first few s-derivatives by the Leibniz rule of
  the jet module, with 15 Bernoulli corrections and the proven bound on
  the remainder (_em_finish); the bound also sizes each point's direct sum
  (series_terms), and
* a table of integer powers m^(-s) (power_tables) that takes an exp at the
  primes only: n^(-s) is completely multiplicative, so every other power is
  the product of two earlier ones.  The evaluator's Dirichlet sums (zeta,
  the characters, the cusp form) read their direct parts from it and
  finish with the Euler-Maclaurin corrections of _em_finish.

All entry points accept scalars or numpy arrays of complex and return the
matching shape.  Accuracy target is absolute 1e-13 or better on the domains
the rest of the package uses; see the tests for the measured envelopes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import jet
from .errors import DomainError, PoleError, UnsupportedOrderError, check_order

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Stirling radius of the walk's rows 0 and 1 (row n >= 2: + n - 1): a row
# stops once Re w >= 0 and |w| >= its radius.  There the bound on the
# remainder after B_30 (_log_gamma_rows) is below 1.4e-17 of the row's
# value; 1e-16 would need a radius of only 7.4 + n (row 0) to 9.3 + n (row
# 17).  So double precision is limited by rounding, not truncation.
_SHIFT_REAL = 12.0

# highest polygamma order m, the one cap on the walk's rows (row m + 1) and
# on the order of psi_F; the tests check every row against mpmath up to it
_MAX_POLYGAMMA = 16
_MAX_HURWITZ_DERIV = 4
# Bernoulli pairs B_2 .. B_30: the terms of the Stirling series and the
# corrections after every Euler-Maclaurin direct sum
_BERNOULLI_PAIRS = 15
# unit steps allowed in the upward recurrence; the package's own gamma
# arguments (Re >= -343.5 for Re s <= 350, radius <= 28) need at most ~372
_MAX_SHIFT_STEPS = 1000

# elements per chunk when evaluating (points x series terms) products
_CHUNK_BUDGET = 4_000_000
# direct-sum lengths above the floor are rounded up to a multiple of this,
# and each distinct length is one direct-sum pass
_TIER = 32
# default floor of a direct-sum length; above it a point takes |Im s| terms
_EM_CUTOFF = 20
# rows x points per integer-power table chunk: 2^17 complex is 2 MB; chunks
# of 2^15 to 2^18 timed alike on 2000-point batches
_TABLE_ELEMS = 1 << 17


def _bernoulli_exact(n_max: int) -> list[Fraction]:
    """B_0 .. B_{n_max} via the defining recurrence, exact rationals."""
    table = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * table[j]
        table.append(-acc / (m + 1))
    return table


_B_EXACT = _bernoulli_exact(2 * _BERNOULLI_PAIRS)
# even-index Bernoulli numbers as floats: index i holds B_{2i}, i >= 1
_B_EVEN = np.array([float(_B_EXACT[2 * i]) for i in range(_BERNOULLI_PAIRS + 1)])

# Stirling series for log Gamma: sum_i B_{2i} / ((2i)(2i-1) w^{2i-1})
_LG_COEF = np.array(
    [float(_B_EXACT[2 * i] / Fraction((2 * i) * (2 * i - 1))) for i in range(1, _BERNOULLI_PAIRS + 1)]
)


def _as_complex(z) -> tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must be finite")
    return (arr.reshape(1), True) if arr.ndim == 0 else (arr, False)


def _gamma_poles(w: np.ndarray) -> np.ndarray:
    """Mask of the w within 1e-12 of a pole of Gamma (0, -1, -2, ...)."""
    r = np.rint(w.real)
    return (np.abs(w.imag) < 1e-12) & (np.abs(w.real - r) < 1e-12) & (r <= 0.0)


def _stirling(n: int, w: np.ndarray) -> np.ndarray:
    """Row n of the Stirling series at w: log Gamma for n = 0, psi^(n-1)
    for n >= 1, with the Bernoulli terms B_2 .. B_30."""
    if n == 0:
        iw2 = 1.0 / (w * w)
        ser = np.zeros_like(w)
        for c in _LG_COEF[::-1]:
            ser = ser * iw2 + c
        return (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI + ser / w
    m = n - 1
    iw = 1.0 / w
    iw2 = iw * iw
    ser = np.zeros_like(w)
    for i in range(_BERNOULLI_PAIRS, 0, -1):
        c = _B_EVEN[i] / (2 * i) if m == 0 else \
            _B_EVEN[i] * (math.factorial(2 * i + m - 1) / math.factorial(2 * i))
        ser = (ser + c) * iw2
    if m == 0:
        return np.log(w) - 0.5 * iw - ser
    head = iw ** m * (math.factorial(m - 1) + 0.5 * math.factorial(m) * iw + ser)
    return head * (-1.0) ** (m - 1)


def _log_gamma_rows(z: np.ndarray, rows: range) -> np.ndarray:
    """d^n/dz^n log Gamma(z) for n in rows, shape (len(rows),) + z.shape, at
    finite z: row 0 is log Gamma and row m + 1 is psi^(m).

    One walk w -> w + 1 serves every row.  Row n subtracts d^n/dw^n log w
    at each w it passes and stops once Re w >= 0 and |w| >= its Stirling
    radius R_n = 12 + max(n-1, 0), tested as Re^2 + Im^2 >= R_n^2.  A step
    keeps both conditions true and R_n grows with n, so row n stops at the
    first w of the walk that meets its own condition, and every row has the
    bits of a walk made for it alone.  At the stop,
    |ph w| <= pi/2, and the Stirling remainder after B_2M (M =
    _BERNOULLI_PAIRS) is at most sec^(2M+2+n)(ph w / 2) <= 2^(M+1+n/2) times
    the first omitted term (DLMF 5.11(ii) for rows 0 and 1, the same
    integral, differentiated, for the others):

        |R_n(w)| <= 2^(M+1+n/2) |B_(2M+2)| (2M+n)!/(2M+2)! |w|^(-2M-1-n),

    below 1.4e-17 |d^n log Gamma(w)| at |w| = R_n for every row up to 17.
    On the critical line of a degree-1 datum, w = (1/2 + it)/2 + mu takes no
    step once |t| >= 2 R_n.  A start more than _MAX_SHIFT_STEPS below the
    highest radius is refused.  Each log keeps its cut inside (-inf, 0], so
    row 0 is the principal branch off that cut.
    """
    bad = _gamma_poles(z)
    if bad.any():
        raise PoleError(f"gamma pole at z = {z[bad][0]}")
    top = _SHIFT_REAL + max(rows[-1] - 1, 0)
    if np.any(top - z.real > _MAX_SHIFT_STEPS):
        x0 = float(z.real.min())
        raise DomainError(f"Re z = {x0} lies more than {_MAX_SHIFT_STEPS} unit steps below "
                          f"the recurrence target {top}")
    out = np.empty((len(rows),) + z.shape, dtype=np.complex128)
    # per row: its accumulator, n, and (-1)^m m! for n = m + 1
    walkers = [(np.zeros(z.shape, dtype=np.complex128), n,
                (-1.0) ** (n - 1) * math.factorial(n - 1) if n else 0.0) for n in rows]
    w = z.astype(np.complex128, copy=True)
    for i, n in enumerate(rows):
        radius2 = (_SHIFT_REAL + max(n - 1, 0)) ** 2
        while True:
            mask = (w.real < 0.0) | (w.real * w.real + w.imag * w.imag < radius2)
            if not mask.any():
                break
            v = w[mask]
            for acc, p, c in walkers[i:]:
                acc[mask] -= c * v ** (-p) if p else np.log(v)
            w[mask] += 1.0
        out[i] = _stirling(n, w) + walkers[i][0]
    return out


def log_gamma(z):
    """Principal-branch log Gamma, analytic on C minus the cut (-inf, 0]:
    row 0 of _log_gamma_rows."""
    arr, scalar = _as_complex(z)
    out = _log_gamma_rows(arr, range(1))[0]
    return out[0] if scalar else out


def polygamma(m: int, z):
    """psi^(m)(z) for complex z, m = 0 .. 16: row m + 1 of _log_gamma_rows."""
    check_order(m, _MAX_POLYGAMMA, UnsupportedOrderError, "polygamma order m")
    arr, scalar = _as_complex(z)
    out = _log_gamma_rows(arr, range(m + 1, m + 2))[0]
    return out[0] if scalar else out


def tier_lengths(im, floor: int = _EM_CUTOFF) -> np.ndarray:
    """max(floor, ceil|Im s|) per point, the excess over floor rounded up to
    a multiple of _TIER: the length of a Dirichlet sum with no
    Euler-Maclaurin finish (the cusp form), and the cap of series_terms."""
    excess = np.maximum(np.ceil(np.abs(im)) - floor, 0.0)
    return (floor + _TIER * np.ceil(excess / _TIER)).astype(np.int64)


def series_terms(s) -> np.ndarray:
    """Direct-sum length N of each point before its Euler-Maclaurin finish:
    the shortest N = _EM_CUTOFF + _TIER k, up to the length of tier_lengths,
    with

        4 (t^2 + mean_c (sigma + c)^2)^M (2 pi)^(-2M) N^(-alpha) / alpha
            <= (5e-15 + 2e-16 |t|) max(1, int_1^(N-1) x^(-sigma) dx),

    M = _BERNOULLI_PAIRS, alpha = sigma + 2M - 1 > 0 and c = 0 .. 2M-1, or
    the length of tier_lengths when no shorter N passes.  The left side is
    at least the remainder bound of _em_finish at deriv 0 and at every
    abscissa N + a, a in (0, 1]: |(s)_2M|^2 is the product of the
    (sigma + c)^2 + t^2, at most their mean to the power 2M.  The right side
    is the rounding allowance of _em_finish on a lower bound of the sum of
    |(n + a)^(-s)| over n < N, so the remainder of every residue class stays
    below its rounding allowance; on the strip that takes about 0.4 |t|
    terms.  Both sides are monotone in N, and a bisection over k finds each
    point's length from that point alone, so a value never depends on the
    batch it is computed in.  A length above _CHUNK_BUDGET is refused before
    anything is allocated."""
    s = np.asarray(s, dtype=np.complex128)
    sig, t = s.real, np.abs(s.imag)
    m = _BERNOULLI_PAIRS
    alpha = sig + (2 * m - 1)
    spread = sig * sig + (2 * m - 1) * sig + (2 * m - 1) * (4 * m - 1) / 6.0
    log_head = m * np.log(t * t + spread) + math.log(4.0) - 2 * m * math.log(2.0 * math.pi) \
        - np.log(np.where(alpha > 0.0, alpha, 1.0))
    log_tol = np.log(5e-15 + 2e-16 * t)

    def passes(k):
        n = _EM_CUTOFF + _TIER * k
        lg = np.log(n - 1.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            area = np.where(sig == 1.0, lg, np.expm1((1.0 - sig) * lg) / (1.0 - sig))
        return (alpha > 0.0) & (log_head - alpha * np.log(n) <= log_tol + np.log(np.maximum(area, 1.0)))

    lo = np.zeros(s.shape)
    hi = (tier_lengths(s.imag) - _EM_CUTOFF) / _TIER
    while np.any(lo < hi):
        live = lo < hi
        mid = np.floor(0.5 * (lo + hi))
        ok = passes(mid)
        hi = np.where(live & ok, mid, hi)
        lo = np.where(live & ~ok, mid + 1.0, lo)
    lengths = _EM_CUTOFF + _TIER * hi.astype(np.int64)
    if np.any(lengths > _CHUNK_BUDGET):
        raise DomainError(f"a direct sum of {lengths.max()} terms exceeds the "
                          f"{_CHUNK_BUDGET}-term limit (|Im s| = {t.max()})")
    return lengths


def tier_chunks(lengths: np.ndarray):
    """(indices, n) for the points of each series length n, in chunks of at
    most _CHUNK_BUDGET point-terms."""
    # a set, not np.unique, whose first call imports numpy.ma (~11 ms per process)
    for n in sorted(set(lengths.tolist())):
        idx = np.flatnonzero(lengths == n)
        step = max(1, _CHUNK_BUDGET // n)
        for lo in range(0, idx.size, step):
            yield idx[lo:lo + step], n


class _PowerPlan(NamedTuple):
    """How to build m^(-s) for the integers m <= q n (prime to q when
    units_only), one row per m: rows by residue class mod q, then by the
    number of prime factors, then by m.  Each exps block (lo, hi), the m = 1
    and primes of one class, takes an exp of -s log m.  Each level (a, b,
    blocks) covers one number of prime factors, levels in increasing order:
    it gathers rows a and rows b, and each of its blocks (lo, hi), the m of
    one class, takes the next hi - lo products of the two."""

    m: np.ndarray                                   # the integer of each row
    logs: np.ndarray                                # log m of each row
    exps: tuple[tuple[int, int], ...]
    levels: tuple[tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]], ...]
    classes: tuple[tuple[int, int, int], ...]       # (residue, lo, hi): a class's rows


@lru_cache(maxsize=64)
def _power_plan(n: int, q: int, units_only: bool) -> _PowerPlan:
    """Factor plan for the integers m <= q n.  It depends on its integer
    arguments alone and holds no value of any datum, so every caller shares
    it."""
    top = q * n
    m = np.arange(top + 1)
    spf = m.copy()  # smallest prime factor, by a sieve
    for p in range(2, math.isqrt(top) + 1):
        if spf[p] == p:
            multiples = spf[p * p::p]
            np.minimum(multiples, p, out=multiples)
    cof = m // np.maximum(spf, 1)  # m / spf(m): smaller, and prime to q if m is
    omega = np.zeros(top + 1, dtype=np.int64)  # number of prime factors
    for _ in range(top.bit_length()):
        omega[2:] = omega[cof[2:]] + 1
    kept = m[1:]
    if units_only:
        kept = kept[np.gcd(kept, q) == 1]
    # (class, level) of each m, level = number of prime factors (< top); m = 1
    # takes its exp with the primes, exp(-s log 1) = 1 exactly
    key = (kept % q) * top + np.maximum(omega[kept], 1)
    order = np.argsort(key, kind="stable")
    kept, key = kept[order], key[order]
    row = np.empty(top + 1, dtype=np.int64)
    row[kept] = np.arange(kept.size)
    edges = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), kept.size]
    blocks: dict[int, list[tuple[int, int]]] = {}  # level -> its rows, one block per class
    classes: dict[int, tuple[int, int]] = {}       # residue -> its rows
    for lo, hi in zip(edges[:-1], edges[1:]):
        r, lv = divmod(int(key[lo]), top)
        blocks.setdefault(lv, []).append((lo, hi))
        classes[r] = (classes.get(r, (lo, hi))[0], hi)
    levels = []
    for lv in sorted(blocks)[1:]:
        ms = np.concatenate([kept[lo:hi] for lo, hi in blocks[lv]])
        levels.append((row[spf[ms]], row[cof[ms]], tuple(blocks[lv])))
    plan = _PowerPlan(kept, np.log(kept.astype(np.float64)), tuple(blocks[1]), tuple(levels),
                      tuple((r, lo, hi) for r, (lo, hi) in sorted(classes.items())))
    # shared by every caller: read-only
    for arr in (plan.m, plan.logs, *(x for lv in levels for x in lv[:2])):
        arr.setflags(write=False)
    return plan


def power_tables(s: np.ndarray, lengths: np.ndarray, q: int = 1, units_only: bool = True):
    """(indices, plan, table) per chunk of points with one series length n.

    table[i, c] = m_c^(-s[indices[i]]) for the integers m_c = plan.m[c] <= q n
    (prime to q when units_only), in the plan's row order: by residue class
    mod q, then by the number of prime factors, then by m; plan.classes
    lists (residue, lo, hi), the columns of each class.  Only m = 1 and the
    primes take an exp; every other column is the product of two earlier
    ones, m = spf(m) * (m / spf(m)), and the product steps already write the
    columns in that order.  Each point's terms of a class lie in one
    contiguous row, so a row sum adds them in an order fixed by n alone and
    a value never depends on the batch.  The table is a buffer that the
    next chunk overwrites.
    """
    top = q * int(lengths.max(initial=0))
    if top > _CHUNK_BUDGET:
        raise DomainError(f"a direct sum of {top} terms exceeds the {_CHUNK_BUDGET}-term limit")
    # work space reused by every chunk: fresh multi-megabyte arrays cost
    # more in page faults than the products written into them
    space = np.empty((3, min(max(_TABLE_ELEMS, top), top * s.size)), dtype=np.complex128)
    for n in sorted(set(lengths.tolist())):
        plan = _power_plan(n, q, units_only)
        idx_all = np.flatnonzero(lengths == n)
        rows = plan.m.size
        step = max(1, _TABLE_ELEMS // rows)
        for lo in range(0, idx_all.size, step):
            idx = idx_all[lo:lo + step]
            # (rows, points): each step gathers and multiplies whole rows
            tab, left, right = (buf[:rows * idx.size].reshape(rows, idx.size) for buf in space)
            minus_s = -s[idx]
            for r0, r1 in plan.exps:
                np.multiply.outer(plan.logs[r0:r1], minus_s, out=tab[r0:r1])
                np.exp(tab[r0:r1], out=tab[r0:r1])
            for a, b, blocks in plan.levels:
                tab.take(a, axis=0, out=left[:a.size], mode="clip")
                tab.take(b, axis=0, out=right[:b.size], mode="clip")
                i = 0
                for r0, r1 in blocks:
                    np.multiply(left[i:i + r1 - r0], right[i:i + r1 - r0], out=tab[r0:r1])
                    i += r1 - r0
            table = left.reshape(idx.size, rows)
            table[...] = tab.T
            yield idx, plan, table


def _direct_sum(s: np.ndarray, a: float, j: int, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_{n < n_terms} (n+a)^(-s) (-log(n+a))^j and the sum of the term moduli."""
    logs = np.log(np.arange(n_terms, dtype=np.float64) + a)
    ex = np.exp(np.multiply.outer(-s, logs))
    if j:
        ex = ex * (-logs) ** j
    return ex.sum(axis=1), np.abs(ex).sum(axis=1)


def _em_finish(s: np.ndarray, main: np.ndarray, main_abs: np.ndarray, big: np.ndarray, j: int,
               sub_pole: bool, scale: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Add the j-th s-derivatives of the Euler-Maclaurin tail, half term and
    _BERNOULLI_PAIRS = M Bernoulli corrections to the direct sums main, each
    correction multiplied by scale if given.  The tail is the Leibniz
    product (jet.leibniz) of the jets of big^(1-s) and 1/(s-1), and each
    Bernoulli term that of the rising factorial's jet and ((-log big)^i).

    big holds each point's x = N + a, the first abscissa left out of its
    direct sum, and main_abs the sum of its term moduli.  Returns (value,
    error estimate).  The estimate is the sum of

    * the remainder bound: the remainder is the integral over u > x of the
      periodic Bernoulli function B~_2M(u)/(2M)!, at most
      4 (2 pi)^(-2M) in modulus, times d^j/ds^j of (s)_2M u^(-s-2M).  With
      alpha = sigma + 2M - 1 > 0 and rho_i the i-th s-derivative of (s)_2M,

          |R_j| <= 4 (2 pi)^(-2M) sum_i C(j, i) |rho_i|
                   int_x^oo log^(j-i)(u) u^(-alpha-1) du,

      each integral in closed form (the incomplete gamma function at an
      integer order), as in Johansson, arXiv:1309.2877; at j = 0 this is
      4 |(s)_2M| (2 pi)^(-2M) x^(-alpha) / alpha.  It is infinite where
      alpha <= 0, since the integral then diverges;
    * a rounding allowance for the direct sum, (5e-15 + 2e-16 |Im s|)
      main_abs: a sum of terms of modulus |m^(-s)| loses a few ulps of its
      modulus mass, and each term's phase -t log m is reduced with an error
      of about eps |t|.  Both constants were calibrated against 30-digit
      mpmath references;
    * a relative floor 1e-15 |value|.

    With sub_pole the analytic pole part d^j/ds^j (s-1)^(-1) is removed,
    which makes the result entire; sums of such values over a character
    with mean zero reproduce the L-function exactly.
    """
    lb = np.log(big)
    decay = np.exp(-s * lb)  # big^(-s)
    powers = [(-lb) ** i for i in range(j + 1)]  # the jet of big^(-s) over big^(-s)

    # d^j/ds^j of big^(1-s) / (s-1), the Leibniz product of the two jets.
    # With sub_pole the pole part d^j/ds^j (s-1)^(-1) is subtracted, which
    # leaves (big^(1-s) - 1)/(s-1), entire in s; near its removed
    # singularity the difference cancels, so there the Taylor series in
    # (1-s) replaces it and the direct form runs on a stand-in s - 1 = 1.
    sm1 = s - 1.0
    near = np.abs(-sm1 * lb) <= 4.0 if sub_pole else np.zeros(s.shape, dtype=bool)
    sm1 = np.where(near, 1.0, sm1)
    tail = jet.leibniz([p * big * decay for p in powers],
                       [(-1.0) ** m * math.factorial(m) * sm1 ** (-m - 1) for m in range(j + 1)], j)
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

    half = 0.5 * powers[j] * decay

    # Bernoulli corrections B_2i/(2i)! d^j/ds^j [(s)_{2i-1} big^(1-s-2i)]:
    # the Leibniz product of powers and the jet of the rising factorial
    # (s)_{2i-1} = s (s+1) ... (s+2i-2) times big^(1-s-2i), a constant
    # factor of every row.  The rising jet starts from (big^(-s), 0, ..., 0)
    # and each term multiplies it by the jets ((s+c)/big, 1/big) of its new
    # factors: row m of the product is row m (s+c)/big + m/big row m-1, top
    # row first.  So no row outgrows the terms it makes, and where big^(-s)
    # underflows the rows are zeros.  The last factor leaves the jet of
    # (s)_2M big^(-s-2M) for the remainder bound.
    m2 = 2 * _BERNOULLI_PAIRS
    inv = 1.0 / big
    rising = np.zeros((j + 1,) + s.shape, dtype=np.complex128)
    rising[0] = decay
    bern = np.zeros_like(s)
    for c in range(m2):
        sc = (s + c) * inv
        for m in range(j, 0, -1):
            rising[m] = rising[m] * sc + (m * inv) * rising[m - 1]
        # not in place: numpy's in-place complex multiply of a one-element
        # array can round differently from the same product in a batch
        rising[0] = rising[0] * sc
        if c % 2 == 0:  # rising holds (s)_{2i-1} big^(1-s-2i)
            i = c // 2 + 1
            bern += (_B_EVEN[i] / math.factorial(2 * i)) * jet.leibniz(rising, powers, j)
    if scale is not None:
        tail, half, bern = scale * tail, scale * half, scale * bern
    value = main + tail + half + bern

    alpha = s.real + (m2 - 1)
    pos = np.where(alpha > 0.0, alpha, 1.0)
    # int_x^oo log^k(u) u^(-alpha-1) du = x^(-alpha) sum_l k!/(k-l)! lb^(k-l) / alpha^(l+1),
    # and big |rising[i]| = |rho_i| x^(-alpha)
    area = [sum(math.perm(k, l) * lb ** (k - l) / pos ** (l + 1) for l in range(k + 1))
            for k in range(j + 1)]
    bound = (4.0 * (2.0 * math.pi) ** -m2) * big \
        * sum(math.comb(j, i) * np.abs(rising[i]) * area[j - i] for i in range(j + 1))
    bound = np.where(alpha > 0.0, bound, np.inf)
    if scale is not None:
        bound = bound * np.abs(scale)
    est = (bound
           + (5e-15 + 2e-16 * np.abs(s.imag)) * main_abs
           + 1e-15 * np.abs(value))
    return value, est


def hurwitz_zeta(s, a: float = 1.0, deriv: int = 0, *, with_error: bool = False,
                 sub_pole: bool = False):
    """d^deriv/ds^deriv of the Hurwitz zeta function zeta(s, a).

    The public general-shift function: a real shift a has no multiplicative
    structure, so each term takes its own exp.  L-values do not come from
    here; the evaluator sums integer powers from power_tables instead.

    a is a scalar in (0, 1], deriv = 0 .. 4.  Accepts scalar or array s;
    s = 1 is a pole and points within 1e-8 of it are rejected.  With
    with_error=True returns (value, est_error).  With sub_pole=True the
    pole part d^deriv/ds^deriv 1/(s-1) is subtracted, giving an entire
    function that is valid at s = 1 as well.

    Each point sums series_terms(s) direct terms, then the 15 Bernoulli
    corrections B_2 .. B_30, so its value is a function of (s, a, deriv)
    alone.  The error estimate is the proven bound on the Euler-Maclaurin
    remainder plus a rounding allowance for the direct sum (_em_finish).
    """
    check_order(deriv, _MAX_HURWITZ_DERIV, UnsupportedOrderError, "hurwitz_zeta deriv")
    if isinstance(a, (bool, np.bool_)) or not (0.0 < a <= 1.0):
        raise DomainError(f"shift parameter a must lie in (0, 1], got {a}")
    arr, scalar = _as_complex(s)
    if not sub_pole and np.any(np.abs(arr - 1.0) < 1e-8):
        raise PoleError("hurwitz_zeta pole at s = 1")

    flat = arr.ravel()
    lengths = series_terms(flat)
    main = np.empty_like(flat)
    main_abs = np.empty(flat.shape, dtype=np.float64)
    for idx, n in tier_chunks(lengths):
        main[idx], main_abs[idx] = _direct_sum(flat[idx], float(a), int(deriv), n)
    value, est = _em_finish(flat, main, main_abs, lengths + float(a), int(deriv), sub_pole)
    vals, errs = value.reshape(arr.shape), est.reshape(arr.shape)
    if scalar:
        return (vals[0], float(errs[0])) if with_error else vals[0]
    return (vals, errs) if with_error else vals
