"""Built-in catalog of L-function data.

A SelbergDatum packages everything the evaluator needs: the Dirichlet
coefficients a(n) (through a provider object), the gamma-factor shape
(Q, lambda_j, mu_j), the root number omega, and the order m_F of the pole
at s = 1.  The degree is 2 * sum(lambda_j).

The provider is the only part that knows its coefficient family: besides
the coefficients it evaluates F over the box (values) and checks a new
datum against its family's axioms (validate).  Two data are equal when
their fields are, the provider included; a periodic provider compares by
its table.

Built-in data, all with real coefficients and omega = +1:

  zeta   Riemann zeta            Q = pi^(-1/2), lambda = (1/2,), mu = (0,)
  chi3   L(s, chi_3), chi_3 the quadratic character mod 3 (odd)
  chi4   L(s, chi_4), chi_4 the quadratic character mod 4 (odd)
  chi5   L(s, chi_5), chi_5 the quadratic character mod 5 (even)
  delta  L(s, Delta) for the weight-12 cusp form, analytic normalization.
         Experimental: series truncation in the critical strip is slow to
         converge, so this entry must be requested explicitly.

Construction validates the axioms it can check cheaply: a(1) = 1, positive
lambda, real nonnegative mu, omega = +-1, a coefficient growth bound, and
the provider's own check: a functional-equation residual at a generic point
for the periodic data, Hecke relations for the cusp form.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import AxiomViolationError, CatalogError, DomainError, PrecisionError
from .specfun import _EM_CUTOFF, _em_finish, power_tables, series_terms, tier_lengths

_COEFF_CAP = 100_000


@dataclass(frozen=True)
class PeriodicProvider:
    """a(n) = table[n mod q]: the Dirichlet characters, and zeta as q = 1
    with table (1,).

    values continues the series to the whole box by Euler-Maclaurin per
    residue class: with the direct sum over m <= q N,

        F(s) = sum_a table[a] [ sum_{m = a mod q} m^(-s) + q^(-s) R(s, N + a/q) ],

    a = 1..q and R the Euler-Maclaurin remainder of zeta(s, a/q) after its
    first N terms.  Each point takes the shortest N whose remainder bound
    meets its rounding allowance (specfun.series_terms), and the direct sums
    of all classes come from one integer-power table per chunk of points.
    """

    table: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(float(x) for x in self.table))

    @property
    def kind(self) -> str:
        """Display label: constant-one for zeta's table, else periodic."""
        return "constant-one" if self.table == (1.0,) else "periodic"

    def block(self, n_max: int) -> np.ndarray:
        q = len(self.table)
        reps = np.arange(1, n_max + 1) % q
        return np.asarray(self.table, dtype=np.float64)[reps]

    def values(self, datum: SelbergDatum, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, error estimates) of F over an array of checked points."""
        table = self.table
        q = len(table)
        residues = [a for a in range(1, q + 1) if table[a % q] != 0.0]
        flat = arr.ravel()
        lengths = series_terms(flat)
        main, main_abs = self._class_sums(flat, lengths, residues)
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

    def _class_sums(self, flat: np.ndarray, lengths: np.ndarray,
                    residues: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The direct sums over m <= q N of each residue class a (mod q) in
        residues, and their modulus masses, shape (len(residues), points).

        The terms come from one integer-power table per chunk.  A term's
        modulus is |m^(-s)| = m^(-sigma), so the masses come from a real
        table exp(-sigma log m) with one row per distinct sigma of the chunk
        (one row for a batch on the critical line) instead of a modulus of
        every complex term.  A row depends on its sigma and N alone, so a
        mass never depends on the batch either."""
        q = len(self.table)
        # the factors of an m prime to q are prime to q, so a character's table
        # needs no other rows
        units_only = all(math.gcd(a, q) == 1 for a in residues)
        main = np.empty((len(residues), flat.size), dtype=np.complex128)
        main_abs = np.empty(main.shape, dtype=np.float64)
        for idx, plan, tab in power_tables(flat, lengths, q, units_only):
            cols = {r: (lo, hi) for r, lo, hi in plan.classes}
            sig, inv = _distinct(flat[idx].real)
            mag = np.exp(np.multiply.outer(-sig, plan.logs))
            for i, a in enumerate(residues):
                lo, hi = cols[a % q]
                main[i, idx] = tab[:, lo:hi].sum(axis=1)
                main_abs[i, idx] = mag[:, lo:hi].sum(axis=1)[inv]
        return main, main_abs

    def validate(self, datum: SelbergDatum) -> None:
        """Residual of F(s) = H(s) F(1 - s) at a generic point, the same
        relative residual as that of xi(s) = omega xi(1 - s).  The series
        continues to the whole box, so this is an independent consistency
        check of (Q, lambdas, mus, omega), which make H, against the
        coefficients.
        """
        from .evaluator import l_value
        from .gamma_factor import fe_factor

        s0 = 2.35 + 1.2j
        a = l_value(datum, s0).value
        b = fe_factor(datum, s0) * l_value(datum, 1.0 - s0).value
        if abs(a - b) > 1e-8 * max(abs(a), abs(b)):
            raise AxiomViolationError(f"{datum.name}: functional equation residual {abs(a - b):.2e} at s = {s0}")


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a 1-D array and the index of each entry
    among them: np.unique, without its first call's import of numpy.ma."""
    srt = np.sort(x)
    keep = np.ones(srt.size, dtype=bool)
    np.not_equal(srt[1:], srt[:-1], out=keep[1:])
    uniq = srt[keep]
    return uniq, np.searchsorted(uniq, x)


def _square_truncated(c: list[int]) -> list[int]:
    """The first len(c) coefficients of c(x)^2, exact, by Kronecker
    substitution: c(2^b) is one integer and its square one big-int product.
    Every coefficient of the square is below len(c) max|c|^2 < 2^(b-1) in
    size, so after a bias of 2^(b-1) per digit, digit k is coefficient k."""
    n = len(c)
    width = (n * max(abs(v) for v in c) ** 2).bit_length() // 8 + 1  # bytes per digit

    def pack(vals) -> int:
        return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in vals), "little")

    x = pack(max(v, 0) for v in c) - pack(max(-v, 0) for v in c)
    half = 1 << (8 * width - 1)
    bias = pack([half] * (2 * n - 1))
    raw = (x * x + bias).to_bytes(width * (2 * n - 1), "little")
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") - half for i in range(n)]


class CuspFormProvider:
    """Normalized Ramanujan tau: a(n) = tau(n) / n^(11/2).

    tau comes from the q-expansion Delta = q * prod (1 - q^m)^24, computed
    exactly: the cube of the Euler product is the sparse Jacobi series
    sum (-1)^k (2k+1) q^(k(k+1)/2), and three squarings, one big-int
    product each, give the 24th power.  Results are cached and extended on
    demand.

    values sums the truncated Dirichlet series where it converges and, for
    Re s < 1/2, uses the reflection F(s) = H(s) F(1-s).  The error estimate
    stays honest about the slow convergence near the critical line, which is
    why that datum is gated as experimental.
    """

    kind = "cusp-form"

    def __init__(self):
        self._tau: list[int] = []  # tau(1), tau(2), ...
        self._lock = threading.Lock()

    @staticmethod
    def _tau_block(n_max: int) -> list[int]:
        p = [0] * n_max  # the cube, then its 6th, 12th and 24th powers
        k = 0
        while k * (k + 1) // 2 < n_max:
            p[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
            k += 1
        for _ in range(3):
            p = _square_truncated(p)
        return p  # tau(n) = p[n-1] since Delta = q * prod(...)

    def tau(self, n_max: int) -> list[int]:
        if n_max > _COEFF_CAP:
            raise PrecisionError(f"tau expansion limited to n <= {_COEFF_CAP}")
        with self._lock:
            if len(self._tau) < n_max:
                self._tau = self._tau_block(n_max)
            return self._tau[:n_max]

    def block(self, n_max: int) -> np.ndarray:
        t = np.array(self.tau(n_max), dtype=np.float64)
        n = np.arange(1, n_max + 1, dtype=np.float64)
        return t / n ** 5.5

    def _series(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The truncated series, max(320, ceil|Im s|) terms
        (specfun.tier_lengths), and its tail estimate."""
        lengths = tier_lengths(arr.imag, floor=16 * _EM_CUTOFF)
        vals = np.empty_like(arr)
        for idx, plan, tab in power_tables(arr, lengths):
            vals[idx] = (tab * self.block(plan.m.size)[plan.m - 1]).sum(axis=1)
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

    def values(self, datum: SelbergDatum, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, error estimates) of F over an array of checked points."""
        from .gamma_factor import fe_factor

        vals = np.empty_like(arr)
        errs = np.empty(arr.shape, dtype=np.float64)
        right = arr.real >= 0.5
        if right.any():
            vals[right], errs[right] = self._series(arr[right])
        if (~right).any():
            # reflect through the functional equation
            pts = arr[~right]
            mirror, merr = self._series(1.0 - pts)
            hvals = fe_factor(datum, pts)
            vals[~right] = hvals * mirror
            errs[~right] = np.abs(hvals) * merr
        return vals, errs

    def validate(self, datum: SelbergDatum) -> None:
        """Multiplicativity spot checks on the tau expansion."""
        t = self.tau(12)
        if t[0] != 1:
            raise AxiomViolationError(f"{datum.name}: tau(1) != 1")
        checks = [
            (t[5], t[1] * t[2]),                  # tau(6) = tau(2) tau(3)
            (t[9], t[1] * t[4]),                  # tau(10) = tau(2) tau(5)
            (t[3], t[1] ** 2 - 2 ** 11),          # tau(4) = tau(2)^2 - 2^11
            (t[8], t[2] ** 2 - 3 ** 11),          # tau(9) = tau(3)^2 - 3^11
        ]
        for got, want in checks:
            if got != want:
                raise AxiomViolationError(f"{datum.name}: Hecke relation failed ({got} != {want})")


@dataclass(frozen=True)
class SelbergDatum:
    """Structural data of one L-function."""

    name: str
    q_factor: float                    # Q in the completed form Q^s * gammas
    lambdas: tuple[float, ...]
    mus: tuple[float, ...]
    omega: float                       # root number, +-1 for real data
    pole_order: int                    # m_F, order of the pole at s = 1
    provider: object = field(repr=False)
    experimental: bool = False

    @property
    def degree(self) -> float:
        return 2.0 * sum(self.lambdas)

    def coefficient_block(self, n_max: int) -> np.ndarray:
        return self.provider.block(n_max)


def _validate_structure(d: SelbergDatum) -> None:
    if d.q_factor <= 0:
        raise AxiomViolationError(f"{d.name}: Q must be positive")
    if len(d.lambdas) != len(d.mus) or not d.lambdas:
        raise AxiomViolationError(f"{d.name}: gamma-factor shape lists must match and be nonempty")
    if any(l <= 0 for l in d.lambdas):
        raise AxiomViolationError(f"{d.name}: lambda factors must be positive")
    if any(m < 0 for m in d.mus):
        raise AxiomViolationError(f"{d.name}: mu shifts must be real and nonnegative")
    if d.omega not in (1.0, -1.0):
        raise AxiomViolationError(f"{d.name}: omega must be +-1 for real coefficient data")
    if d.pole_order not in (0, 1):
        raise AxiomViolationError(f"{d.name}: pole order must be 0 or 1")
    block = d.coefficient_block(200)
    if abs(block[0] - 1.0) > 1e-14:
        raise AxiomViolationError(f"{d.name}: leading coefficient a(1) must be 1")
    n = np.arange(1, 201, dtype=np.float64)
    if np.any(np.abs(block) > 8.0 * np.sqrt(n)):
        raise AxiomViolationError(f"{d.name}: coefficient growth violates |a(n)| << n^(1/2)")


_SQRT_PI = math.sqrt(math.pi)


def _build(name: str) -> SelbergDatum:
    if name == "zeta":
        return SelbergDatum("zeta", 1.0 / _SQRT_PI, (0.5,), (0.0,), 1.0, 1, PeriodicProvider((1.0,)))
    if name == "chi3":
        return SelbergDatum("chi3", math.sqrt(3.0 / math.pi), (0.5,), (0.5,), 1.0, 0,
                            PeriodicProvider((0.0, 1.0, -1.0)))
    if name == "chi4":
        return SelbergDatum("chi4", 2.0 / _SQRT_PI, (0.5,), (0.5,), 1.0, 0,
                            PeriodicProvider((0.0, 1.0, 0.0, -1.0)))
    if name == "chi5":
        return SelbergDatum("chi5", math.sqrt(5.0 / math.pi), (0.5,), (0.0,), 1.0, 0,
                            PeriodicProvider((0.0, 1.0, -1.0, -1.0, 1.0)))
    if name == "delta":
        return SelbergDatum("delta", 1.0 / (2.0 * math.pi), (1.0,), (5.5,), 1.0, 0,
                            CuspFormProvider(), experimental=True)
    raise CatalogError(f"unknown datum name: {name!r}")


BUILTIN_NAMES = ("zeta", "chi3", "chi4", "chi5", "delta")


@lru_cache(maxsize=None)
def _builtin_cached(name: str) -> SelbergDatum:
    d = _build(name)
    _validate_structure(d)
    d.provider.validate(d)
    return d


def builtin(name: str, experimental: bool = False) -> SelbergDatum:
    """Look up a built-in datum by name.

    Experimental entries (currently just delta) raise CatalogError unless
    explicitly enabled, since their strip evaluation carries larger error.
    """
    if name not in BUILTIN_NAMES:
        raise CatalogError(f"unknown datum name: {name!r}")
    d = _builtin_cached(name)
    if d.experimental and not experimental:
        raise CatalogError(f"{name!r} is experimental; pass experimental=True to enable")
    return d


def coefficients(datum: SelbergDatum, n_max: int) -> np.ndarray:
    """First n_max Dirichlet coefficients a(1) .. a(n_max)."""
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)) or n_max < 0:
        raise DomainError(f"n_max must be a nonnegative integer, got {n_max!r}")
    if n_max == 0:
        return np.zeros(0, dtype=np.float64)
    if n_max > _COEFF_CAP:
        raise PrecisionError(f"coefficient blocks limited to n <= {_COEFF_CAP}")
    return datum.coefficient_block(int(n_max))


def catalog_listing(experimental: bool = False) -> list[dict]:
    """JSON-ready summary of the available data."""
    out = []
    for name in BUILTIN_NAMES:
        d = builtin(name, experimental=True)
        if d.experimental and not experimental:
            continue
        out.append({
            "name": d.name,
            "Q": d.q_factor,
            "lambdas": list(d.lambdas),
            "mus": list(d.mus),
            "omega": d.omega,
            "m_F": d.pole_order,
            "degree": d.degree,
            "provider_kind": d.provider.kind,
        })
    return out
