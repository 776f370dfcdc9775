"""Zero tables and structural checks on Z^(k).

scan_zeros        sign-scan on a density-matched grid, brackets refined by
                  safeguarded Illinois (regula-falsi) steps
interlace_audit   zeros of Z^(k+1) between consecutive zeros of Z^(k)
argument_S        S(T) by continuous argument tracking of F_k
count_compare     on-line count against theta/pi + S(T)
contour_count     argument-principle count in a rectangle off the real axis
mirror_sum_check  d/dt (Z^(k+1)/Z^(k)) against the mirrored zero sum

Scan results are cached in-process per (datum and its coefficient provider,
k, range, context); the --jobs knob only parallelizes evaluation of
fixed-size slices of the grid, the refinement rounds and the residuals, so
the numbers are bit-identical whatever the parallelism.
"""

from __future__ import annotations

import cmath
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .catalog import SelbergDatum
from .chain import chain_grid, z_grid
from .context import DEFAULT_CONTEXT, EvalContext
from .errors import (InconclusiveContourError, PrecisionError, ProximityError,
                     RangeError, TrackingError)
from .evaluator import REAL_MAX, REAL_MIN
from .fmtio import fmt15
from .gamma_factor import psi_pole_distance, theta, theta_grid

SCAN_T_MIN = 5.0
SCAN_T_MAX = 500.0
SCAN_K_MAX = 6
_SLICE = 1500  # grid points per evaluation slice, fixed for determinism


@dataclass(frozen=True)
class ZeroTable:
    """Refined zeros of Z^(k) on [t0, t1]."""

    name: str
    k: int
    t0: float
    t1: float
    gammas: tuple[float, ...]
    residuals: tuple[float, ...]
    bracket_widths: tuple[float, ...]
    advisory: tuple[float, ...]  # near-tangential dips without sign change

    def to_csv_text(self) -> str:
        lines = ["k,t,residual,bracket_width"]
        for g, r, b in zip(self.gammas, self.residuals, self.bracket_widths):
            lines.append(f"{self.k},{fmt15(g)},{fmt15(r)},{fmt15(b)}")
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "t0": self.t0,
            "t1": self.t1,
            "gammas": list(self.gammas),
            "residuals": list(self.residuals),
            "bracket_widths": list(self.bracket_widths),
            "advisory": list(self.advisory),
        }


@dataclass(frozen=True)
class GapRecord:
    left: float
    right: float
    inner: tuple[float, ...]
    count: int


@dataclass(frozen=True)
class InterlaceReport:
    name: str
    k: int
    t0: float
    t1: float
    gaps: tuple[GapRecord, ...]
    violations: int

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "t0": self.t0,
            "t1": self.t1,
            "gaps": [
                {"left": g.left, "right": g.right, "inner": list(g.inner), "count": g.count}
                for g in self.gaps
            ],
            "violations": self.violations,
        }


@dataclass(frozen=True)
class CountReport:
    name: str
    T: float
    k: int
    n_line: int
    theta_term: float
    s_measured: float
    residual: float

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "T": self.T,
            "k": self.k,
            "n_line": self.n_line,
            "theta_term": self.theta_term,
            "s_measured": self.s_measured,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class Rectangle:
    sigma_min: float
    sigma_max: float
    t_min: float
    t_max: float


@dataclass(frozen=True)
class MirrorReport:
    name: str
    k: int
    t: float
    window: float
    lhs: float
    truncated_sum: float
    tail_bound: float
    c_fit: float
    agree: bool

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "t": self.t,
            "window": self.window,
            "lhs": self.lhs,
            "truncated_sum": self.truncated_sum,
            "tail_bound": self.tail_bound,
            "c_fit": self.c_fit,
            "agree": self.agree,
        }


_scan_cache: dict[tuple, ZeroTable] = {}
_scan_lock = threading.Lock()


def _density_slope(datum: SelbergDatum, t: float) -> float:
    """theta'(t), closed-form Stirling main term, floored at 1."""
    d = datum.degree
    c1 = (math.log(datum.q_factor)
          + sum(l * (math.log(l) - 1.0) for l in datum.lambdas)
          + 0.5 * d * math.log(2.0 * math.pi))
    slope = 0.5 * d * (math.log(max(t, 2.0) / (2.0 * math.pi)) + 1.0) + c1
    return max(slope, 1.0)


def _scan_grid(datum: SelbergDatum, t0: float, t1: float, ctx: EvalContext) -> np.ndarray:
    pts = [t0]
    t = t0
    while t < t1:
        t = min(t1, t + ctx.scan_safety * math.pi / _density_slope(datum, t))
        pts.append(t)
    return np.array(pts)


def _eval_sliced(datum: SelbergDatum, ts: np.ndarray, k: int, ctx: EvalContext,
                 jobs: int = 1) -> np.ndarray:
    """Z^(k) over ts in fixed-size slices, optionally in a thread pool."""
    slices = [slice(lo, min(lo + _SLICE, ts.size)) for lo in range(0, ts.size, _SLICE)]
    out = np.empty(ts.size, dtype=np.float64)
    if jobs <= 1 or len(slices) == 1:
        for sl in slices:
            out[sl] = z_grid(datum, ts[sl], k, ctx)[0]
        return out
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = pool.map(lambda sl: (sl, z_grid(datum, ts[sl], k, ctx)[0]), slices)
        for sl, vals in results:
            out[sl] = vals
    return out


def _refine_brackets(f, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
                     fhi: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Shrink sign-change brackets of f until each is at most tol wide.

    f maps an array of abscissae to values; flo and fhi are f at lo and hi,
    of opposite signs.  Each round is one call of f on the brackets still
    open.  A step is an Illinois regula-falsi step: the end kept twice in a
    row has its stored value halved, so the secant cannot stall at one end.
    Steps are clamped 0.45 tol inside the bracket, which closes it once the
    secant estimate sits within that distance of an end.  A bracket whose
    width has not halved in three rounds bisects instead: a healthy bracket
    often keeps one end for two rounds before the Illinois step jumps past
    the zero, and a two-round test would bisect in place of that jump.  A
    value of exactly 0.0 closes its bracket at that point.
    """
    lo, hi, flo, fhi = (np.array(a, dtype=np.float64) for a in (lo, hi, flo, fhi))
    kept = np.zeros(lo.size, dtype=np.int8)  # +1: lo moved last round, -1: hi did
    past = np.full((3, lo.size), np.inf)  # widths one, two, three rounds ago
    live = np.flatnonzero(hi - lo > tol)
    while live.size:
        a, b, fa, fb = lo[live], hi[live], flo[live], fhi[live]
        w = b - a
        x = np.where(w > 0.5 * past[2, live], a + 0.5 * w, b - fb * (w / (fb - fa)))
        x = np.clip(x, a + 0.45 * tol, b - 0.45 * tol)
        fx = f(x)
        zero = fx == 0.0
        to_lo = np.sign(fx) == np.sign(fa)
        to_hi = ~(to_lo | zero)
        moved_lo, moved_hi, hit = live[to_lo], live[to_hi], live[zero]
        fhi[moved_lo[kept[moved_lo] == 1]] *= 0.5
        flo[moved_hi[kept[moved_hi] == -1]] *= 0.5
        lo[moved_lo], flo[moved_lo], kept[moved_lo] = x[to_lo], fx[to_lo], 1
        hi[moved_hi], fhi[moved_hi], kept[moved_hi] = x[to_hi], fx[to_hi], -1
        lo[hit] = hi[hit] = x[zero]
        past[1:, live] = past[:-1, live]
        past[0, live] = w
        live = live[hi[live] - lo[live] > tol]
    return lo, hi


def scan_zeros(datum: SelbergDatum, k: int, t0: float, t1: float,
               ctx: EvalContext | None = None, jobs: int = 1) -> ZeroTable:
    """Sign-scan [t0, t1] for zeros of Z^(k) and refine each bracket.

    The grid step tracks the local zero density (scan_safety times the mean
    gap).  Each sign-change bracket shrinks to refine_tol by safeguarded
    Illinois steps (see _refine_brackets) and its midpoint is the reported
    zero.  Near-tangential dips of |Z^(k)| without a sign change are listed
    as advisory t values.
    """
    ctx = ctx or DEFAULT_CONTEXT
    if not (SCAN_T_MIN <= t0 < t1 <= SCAN_T_MAX):
        raise RangeError(f"scan range must satisfy {SCAN_T_MIN} <= t0 < t1 <= {SCAN_T_MAX}")
    if not (0 <= k <= SCAN_K_MAX):
        raise RangeError(f"scan supports derivative orders 0..{SCAN_K_MAX}")
    # the provider is not part of datum equality, and two data that differ
    # only in their coefficients must not share a table
    key = (datum, datum.provider, k, float(t0), float(t1), astuple(ctx))
    with _scan_lock:
        if key in _scan_cache:
            return _scan_cache[key]

    grid = _scan_grid(datum, t0, t1, ctx)
    vals = _eval_sliced(datum, grid, k, ctx, jobs)

    exact = np.flatnonzero(vals == 0.0)
    change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)

    lo, hi = _refine_brackets(lambda x: _eval_sliced(datum, x, k, ctx, jobs),
                              grid[change], grid[change + 1], vals[change], vals[change + 1],
                              ctx.refine_tol)
    gamma = 0.5 * (lo + hi)
    residual = np.abs(_eval_sliced(datum, gamma, k, ctx, jobs)) if gamma.size else gamma
    width = hi - lo

    records = sorted(
        [(float(g), float(r), float(w)) for g, r, w in zip(gamma, residual, width)]
        + [(float(grid[i]), 0.0, 0.0) for i in exact]
    )

    absv = np.abs(vals)
    scale = float(np.median(absv)) if absv.size else 0.0
    advisory = []
    for i in range(1, len(vals) - 1):
        if absv[i] < absv[i - 1] and absv[i] < absv[i + 1] and absv[i] < 1e-3 * scale:
            if i - 1 not in change and i not in change:
                advisory.append(float(grid[i]))

    table = ZeroTable(
        datum.name, int(k), float(t0), float(t1),
        tuple(r[0] for r in records),
        tuple(r[1] for r in records),
        tuple(r[2] for r in records),
        tuple(advisory),
    )
    with _scan_lock:
        _scan_cache[key] = table
    return table


def interlace_audit(datum: SelbergDatum, k: int, t0: float, t1: float,
                    ctx: EvalContext | None = None, jobs: int = 1) -> InterlaceReport:
    """Count zeros of Z^(k+1) strictly inside each gap of Z^(k) zeros.

    A gap with exactly one inner zero is the interlacing pattern; anything
    else is recorded and tallied as a violation.  Rolle guarantees at least
    one inner zero unconditionally, so count = 0 would indicate a scan
    artifact rather than mathematics.
    """
    if not (0 <= k <= SCAN_K_MAX - 1):
        raise RangeError(f"interlace audit needs k+1 <= {SCAN_K_MAX}")
    base = scan_zeros(datum, k, t0, t1, ctx, jobs)
    upper = scan_zeros(datum, k + 1, t0, t1, ctx, jobs)
    gaps = []
    violations = 0
    for left, right in zip(base.gammas, base.gammas[1:]):
        inner = tuple(g for g in upper.gammas if left < g < right)
        rec = GapRecord(left, right, inner, len(inner))
        gaps.append(rec)
        if rec.count != 1:
            violations += 1
    return InterlaceReport(datum.name, int(k), float(t0), float(t1), tuple(gaps), violations)


def _tracking_abscissa(datum: SelbergDatum, k: int, ctx: EvalContext) -> float:
    """sigma_right(k), nudged rightward off any real pole of psi."""
    base = ctx.sigma_right(k)
    for j in range(9):
        sigma = base + j / 8.0
        if psi_pole_distance(datum, sigma) >= 0.45:
            return sigma
    raise PrecisionError("could not place the tracking line away from psi poles")


def _chain_pair(datum: SelbergDatum, s_arr: np.ndarray, k: int, ctx: EvalContext):
    """(F_k, F_{k+1}, psi) over a batch from one shared evaluation."""
    f, big_f, _ = chain_grid(datum, s_arr, k, ctx, extra=1)
    psi = -2.0 * f[1]
    return big_f[k], big_f[k + 1], psi


def _guard_tracking_line(datum: SelbergDatum, k: int, sigma: float, t_top: float,
                         ctx: EvalContext) -> None:
    """The count interpretation needs F_k zero-free right of the line.

    Sufficient and checkable where the asymptotics apply (t >= 5):
    Re(-psi/2) > 0 and F_k close to its dominant power along the line.  The
    low strip t < 5 is left to the order-one constant of the counting
    formula; near the real axis psi swings between its real poles and these
    inequalities genuinely fail there.
    """
    if t_top <= SCAN_T_MIN:
        return
    ts = np.linspace(SCAN_T_MIN, t_top, 9)
    pts = sigma + 1j * ts
    f, big_f, _ = chain_grid(datum, pts, k, ctx, extra=1)
    psi = -2.0 * f[1]
    if np.any(psi.real >= 0.0):
        raise PrecisionError("Re psi >= 0 on the tracking line; increase sigma_right")
    if np.any(np.abs(f[k]) == 0.0):
        raise PrecisionError("f_k vanishes on the tracking line; increase sigma_right")
    ratio = big_f[k] / f[k]
    if np.any(np.abs(ratio - 1.0) > 0.9):
        raise PrecisionError("F_k strays from its dominant power on the tracking line; increase sigma_right")


def _track_segment(datum: SelbergDatum, k: int, s_from: complex, s_to: complex,
                   ctx: EvalContext, start_val: complex) -> tuple[float, complex]:
    """Continuous-argument variation of F_k along a segment.

    Adaptive stepping keeps each phase increment below pi/4; steps halve on
    violation and underflow raises TrackingError.
    """
    length = abs(s_to - s_from)
    direction = (s_to - s_from) / length
    pos = 0.0
    cur = start_val
    total = 0.0
    step = min(1.0, 0.25 * length)
    min_step = 1e-7 * max(1.0, length)
    while pos < length:
        h = min(step, length - pos)
        while True:
            nxt_val = _chain_scalar(datum, s_from + (pos + h) * direction, k, ctx)
            dphi = cmath.phase(nxt_val / cur)
            if abs(dphi) <= math.pi / 4 or h <= min_step:
                break
            h *= 0.5
        if h <= min_step and abs(dphi) > math.pi / 2:
            raise TrackingError(f"phase step underflow near s = {s_from + pos * direction}")
        total += dphi
        cur = nxt_val
        pos += h
        step = min(step * 1.6, 2.0) if abs(dphi) < math.pi / 16 else max(h, min_step)
    return total, cur


def _chain_scalar(datum: SelbergDatum, s: complex, k: int, ctx: EvalContext) -> complex:
    _, big_f, _ = chain_grid(datum, np.array([s]), k, ctx)
    return complex(big_f[k, 0])


def argument_S(datum: SelbergDatum, k: int, T: float,
               ctx: EvalContext | None = None) -> float:
    """S(T) for F_k: (1/pi) arg variation along sigma_r -> sigma_r + iT -> 1/2 + iT.

    The start is on the real axis where F_k is real and positive, so the
    tracked variation is the full argument.
    """
    ctx = ctx or DEFAULT_CONTEXT
    if not (SCAN_T_MIN <= T <= SCAN_T_MAX):
        raise RangeError(f"argument tracking supports {SCAN_T_MIN} <= T <= {SCAN_T_MAX}")
    if not (0 <= k <= SCAN_K_MAX):
        raise RangeError(f"argument tracking supports k <= {SCAN_K_MAX}")
    sigma = _tracking_abscissa(datum, k, ctx)
    _guard_tracking_line(datum, k, sigma, T, ctx)
    start = _chain_scalar(datum, complex(sigma), k, ctx)
    if abs(start) < 1e-9 or abs(start.imag) > 1e-6 * abs(start):
        raise PrecisionError("F_k not usably real at the tracking start; increase sigma_right")
    # F_k(sigma) is real but near the axis its sign depends on where psi sits
    # between its poles; a negative start pins arg to +pi by convention, a
    # T-independent choice that lands in the order-one residual.
    start_arg = 0.0 if start.real > 0 else math.pi
    up, val = _track_segment(datum, k, complex(sigma), complex(sigma, T), ctx, start)
    across, _ = _track_segment(datum, k, complex(sigma, T), complex(0.5, T), ctx, val)
    return (start_arg + up + across) / math.pi


def count_compare(datum: SelbergDatum, k: int, T: float,
                  ctx: EvalContext | None = None, jobs: int = 1) -> CountReport:
    """On-line zero count against the counting formula theta/pi + S(T).

    n_line counts sign changes of Z^(k) on (0, T]: a dense fixed grid covers
    the low strip (0, 5] and the density-matched scan covers [5, T].  The
    residual n_line - theta/pi - S(T) collects the order-one constants of
    the counting formula and should stay bounded as T varies.
    """
    ctx = ctx or DEFAULT_CONTEXT
    if not (20.0 <= T <= SCAN_T_MAX):
        raise RangeError("count comparison supports 20 <= T <= 500")
    if not (0 <= k <= SCAN_K_MAX):
        raise RangeError(f"count comparison supports k <= {SCAN_K_MAX}")
    low = np.arange(0.05, SCAN_T_MIN + 0.005, 0.005)
    lv = _eval_sliced(datum, low, k, ctx, jobs)
    low_count = int(np.count_nonzero(np.sign(lv[:-1]) * np.sign(lv[1:]) < 0))
    table = scan_zeros(datum, k, SCAN_T_MIN, T, ctx, jobs)
    n_line = low_count + len(table.gammas)
    theta_term = theta(datum, T).theta / math.pi
    s_measured = argument_S(datum, k, T, ctx)
    residual = n_line - theta_term - s_measured
    return CountReport(datum.name, float(T), int(k), n_line, theta_term, s_measured, residual)


def _rect_nodes(rect: Rectangle, edge: int, m: int) -> np.ndarray:
    """m+1 nodes along edge 0..3, counterclockwise from (sigma_min, t_min)."""
    corners = [
        complex(rect.sigma_min, rect.t_min),
        complex(rect.sigma_max, rect.t_min),
        complex(rect.sigma_max, rect.t_max),
        complex(rect.sigma_min, rect.t_max),
    ]
    a = corners[edge]
    b = corners[(edge + 1) % 4]
    return a + (b - a) * np.linspace(0.0, 1.0, m + 1)


def contour_count(datum: SelbergDatum, selector: str, k: int, rect: Rectangle,
                  ctx: EvalContext | None = None) -> int:
    """Argument-principle zero count of F_k or f_k inside a rectangle.

    The rectangle must sit off the real axis (t_min >= 1), which keeps every
    pole of the integrand outside: all poles of psi, f_k and F_k are real
    apart from s = 1.  The logarithmic derivative comes from the chain
    identity  X_k'/X_k = X_{k+1}/X_k + psi/2  shared by both selectors, so
    no numerical differentiation enters the winding number.
    """
    ctx = ctx or DEFAULT_CONTEXT
    if selector not in ("chain", "coeff"):
        raise RangeError("selector must be 'chain' (F_k) or 'coeff' (f_k)")
    if not (0 <= k <= SCAN_K_MAX):
        raise RangeError(f"contour counting supports k <= {SCAN_K_MAX}")
    if not (rect.sigma_min < rect.sigma_max and rect.t_min < rect.t_max):
        raise RangeError("degenerate rectangle")
    if rect.t_min < 1.0 or rect.t_max > SCAN_T_MAX:
        raise RangeError("rectangle must satisfy 1 <= t_min < t_max <= 500")
    rho = ctx.cauchy_radius
    if rect.sigma_min < REAL_MIN + rho or rect.sigma_max > REAL_MAX - rho:
        raise RangeError("rectangle leaves the evaluation box")

    def logderiv(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if selector == "chain":
            fk, fk1, psi = _chain_pair(datum, nodes, k, ctx)
        else:
            f, _, _ = chain_grid(datum, nodes, k, ctx, extra=1)
            fk, fk1, psi = f[k], f[k + 1], -2.0 * f[1]
        return fk, fk1 / fk + 0.5 * psi

    total = 0.0 + 0.0j
    for edge in range(4):
        m = 32
        prev = None
        while True:
            nodes = _rect_nodes(rect, edge, m)
            sel, ld = logderiv(nodes)
            small = np.abs(sel)
            if float(small.min()) < 1e-8 * max(float(small.max()), 1e-30):
                raise InconclusiveContourError(
                    f"|{selector}| nearly vanishes on edge {edge}; shift the rectangle"
                )
            seg = nodes[-1] - nodes[0]
            integral = seg * (0.5 * ld[0] + ld[1:-1].sum() + 0.5 * ld[-1]) / m
            if prev is not None and abs(integral - prev) < 0.005 * 2.0 * math.pi:
                break
            if m >= 8192:
                raise InconclusiveContourError(
                    f"edge {edge} integral failed to settle; a zero may hug the contour"
                )
            prev = integral
            m *= 2
        total += integral
    w = total / (2.0j * math.pi)
    n = round(w.real)
    if abs(w - n) >= 0.1:
        raise InconclusiveContourError(f"winding number {w} too far from an integer")
    return int(n)


def mirror_sum_check(datum: SelbergDatum, k: int, t: float, window: float,
                     ctx: EvalContext | None = None, c_budget: float = 10.0,
                     jobs: int = 1) -> MirrorReport:
    """Compare d/dt (Z^(k+1)/Z^(k)) at t with -sum 1/(t-gamma)^2.

    The sum runs over zeros of Z^(k) within the window; the tail beyond it
    is bounded by 2 rho / W + 4 / W^2 with rho the local zero density.  The
    implied constant c_fit = t * excess should stay of order one.
    """
    ctx = ctx or DEFAULT_CONTEXT
    if not (0 <= k <= SCAN_K_MAX):
        raise RangeError(f"mirror check supports k <= {SCAN_K_MAX}")
    if window < 5.0:
        raise RangeError("window must be at least 5")
    if t - window < SCAN_T_MIN or t + window > SCAN_T_MAX:
        raise RangeError("window must stay inside the scannable range [5, 500]")
    table = scan_zeros(datum, k, t - window, t + window, ctx, jobs)
    gam = np.array(table.gammas)
    if gam.size and float(np.min(np.abs(gam - t))) <= ctx.refine_tol:
        raise ProximityError(f"t = {t} coincides with a zero of Z^({k})")
    vals = [z_grid(datum, np.array([t]), k + j, ctx)[0][0] for j in range(3)]
    z0, z1, z2 = vals
    lhs = z2 / z0 - (z1 / z0) ** 2
    truncated = float(np.sum(1.0 / (t - gam) ** 2)) if gam.size else 0.0
    density = theta(datum, t).theta_prime / math.pi
    tail_bound = 2.0 * density / window + 4.0 / window ** 2
    c_fit = t * max(0.0, abs(lhs + truncated) - tail_bound)
    return MirrorReport(datum.name, int(k), float(t), float(window),
                        float(lhs), truncated, float(tail_bound), float(c_fit),
                        bool(c_fit <= c_budget))
