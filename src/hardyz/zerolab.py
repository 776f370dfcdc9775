"""Zero tables and structural checks on Z^(k).

scan_zeros        sign-scan on a density-matched grid, brackets refined by
                  safeguarded Illinois (regula-falsi) steps
interlace_audit   zeros of Z^(k+1) between consecutive zeros of Z^(k)
argument_S        S(T) by a phase walk of F_k
count_compare     on-line count against theta/pi + S(T)
contour_count     argument-principle count in a rectangle off the real axis,
                  by a phase walk of F_k or f_k around its boundary
mirror_sum_check  d/dt (Z^(k+1)/Z^(k)) against the mirrored zero sum

Scan results are cached in-process per (datum and its coefficient provider,
k, range, context).  Scans pass whole grids to z_grid: every value is a
function of (datum, t, k, context) alone, whatever batch it is computed in.
argument_S and contour_count share one arg-change integrator, _phase_walk,
which evaluates all the points of one refinement round in one batch.
"""

from __future__ import annotations

import math
import threading
from dataclasses import astuple, dataclass

import numpy as np

from .catalog import SelbergDatum
from .chain import chain_grid, coeff_stack_grid, z_grid
from .context import DEFAULT_CONTEXT, EvalContext
from .errors import (InconclusiveContourError, PrecisionError, ProximityError,
                     RangeError, TrackingError)
from .evaluator import CAUCHY_RADIUS, REAL_MAX, REAL_MIN
from .fmtio import fmt15
from .gamma_factor import psi_pole_distance, theta, theta_grid

SCAN_T_MIN = 5.0
SCAN_T_MAX = 500.0
SCAN_K_MAX = 6


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
               ctx: EvalContext | None = None) -> ZeroTable:
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
    vals = z_grid(datum, grid, k, ctx)[0]

    exact = np.flatnonzero(vals == 0.0)
    change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)

    lo, hi = _refine_brackets(lambda x: z_grid(datum, x, k, ctx)[0],
                              grid[change], grid[change + 1], vals[change], vals[change + 1],
                              ctx.refine_tol)
    gamma = 0.5 * (lo + hi)
    residual = np.abs(z_grid(datum, gamma, k, ctx)[0]) if gamma.size else gamma
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
                    ctx: EvalContext | None = None) -> InterlaceReport:
    """Count zeros of Z^(k+1) strictly inside each gap of Z^(k) zeros.

    A gap with exactly one inner zero is the interlacing pattern; anything
    else is recorded and tallied as a violation.  Rolle guarantees at least
    one inner zero unconditionally, so count = 0 would indicate a scan
    artifact rather than mathematics.
    """
    if not (0 <= k <= SCAN_K_MAX - 1):
        raise RangeError(f"interlace audit needs k+1 <= {SCAN_K_MAX}")
    base = scan_zeros(datum, k, t0, t1, ctx)
    upper = scan_zeros(datum, k + 1, t0, t1, ctx)
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
    # f_1 = -psi/2 from the coefficient stack alone: at k = 0, F_1 would
    # cost a derivative circle around every point
    f = coeff_stack_grid(datum, pts, max(k, 1), ctx)
    psi = -2.0 * f[1]
    if np.any(psi.real >= 0.0):
        raise PrecisionError("Re psi >= 0 on the tracking line; increase sigma_right")
    if np.any(np.abs(f[k]) == 0.0):
        raise PrecisionError("f_k vanishes on the tracking line; increase sigma_right")
    ratio = chain_grid(datum, pts, k, ctx)[1][k] / f[k]
    if np.any(np.abs(ratio - 1.0) > 0.9):
        raise PrecisionError("F_k strays from its dominant power on the tracking line; increase sigma_right")


def _phase_walk(values, corners, err) -> tuple[float, list[np.ndarray]]:
    """Continuous change of arg of values(s) along the polyline through corners.

    values maps an array of points to complex values.  Each segment starts
    as 32 equal steps, and each round evaluates the midpoints of all open
    steps in one call.  A step closes when its phase increment and those of
    both its halves are each at most pi/2; three such increments cannot
    differ by a turn of 2 pi, so no aliased turn hides in a closed step,
    which adds its two half increments to the change.  Any other step splits
    at its midpoint, and one that must split while narrower than
    1e-7 max(1, length of its segment) raises err.  The change is a sum of
    principal increments between sampled values: it needs no derivative and
    no quadrature tolerance.

    Returns the change and, per segment, every value sampled on it, the
    value at the segment's start first.
    """
    corners = np.asarray(corners, dtype=np.complex128)
    floor = 1e-7 * np.maximum(1.0, np.abs(np.diff(corners)))
    nodes = corners[:-1, None] + np.diff(corners)[:, None] * np.linspace(0.0, 1.0, 33)
    vals = values(nodes.ravel()).reshape(nodes.shape)
    a, b = nodes[:, :-1].ravel(), nodes[:, 1:].ravel()
    va, vb = vals[:, :-1].ravel(), vals[:, 1:].ravel()
    seg = np.repeat(np.arange(corners.size - 1), 32)
    seen, turns = [[v] for v in vals], []
    while a.size:
        mid = 0.5 * (a + b)
        vm = values(mid)
        d1, d2 = np.angle(vm / va), np.angle(vb / vm)
        done = np.maximum(np.abs(np.angle(vb / va)),
                          np.maximum(np.abs(d1), np.abs(d2))) <= 0.5 * math.pi
        stuck = ~done & (np.abs(b - a) < floor[seg])
        if stuck.any():
            i = np.flatnonzero(stuck)[0]
            raise err(f"arg turns too fast to follow on segment {seg[i]} near "
                      f"s = {complex(mid[i])}; a zero may sit on or near it")
        turns.append(d1[done] + d2[done])
        for i, on_seg in enumerate(seen):
            on_seg.append(vm[seg == i])
        split = ~done
        a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
        va, vb = np.concatenate([va[split], vm[split]]), np.concatenate([vm[split], vb[split]])
        seg = np.tile(seg[split], 2)
    return math.fsum(np.concatenate(turns)), [np.concatenate(v) for v in seen]


def argument_S(datum: SelbergDatum, k: int, T: float,
               ctx: EvalContext | None = None) -> float:
    """S(T) for F_k: (1/pi) arg variation along sigma_r -> sigma_r + iT -> 1/2 + iT.

    The variation comes from one phase walk of F_k along the path (see
    _phase_walk).  The start is on the real axis where F_k is real, so the
    walked variation is the full argument.
    """
    ctx = ctx or DEFAULT_CONTEXT
    if not (SCAN_T_MIN <= T <= SCAN_T_MAX):
        raise RangeError(f"argument tracking supports {SCAN_T_MIN} <= T <= {SCAN_T_MAX}")
    if not (0 <= k <= SCAN_K_MAX):
        raise RangeError(f"argument tracking supports k <= {SCAN_K_MAX}")
    sigma = _tracking_abscissa(datum, k, ctx)
    _guard_tracking_line(datum, k, sigma, T, ctx)
    turn, samples = _phase_walk(lambda s: chain_grid(datum, s, k, ctx)[1][k],
                                [sigma, complex(sigma, T), complex(0.5, T)], TrackingError)
    start = complex(samples[0][0])
    if abs(start) < 1e-9 or abs(start.imag) > 1e-6 * abs(start):
        raise PrecisionError("F_k not usably real at the tracking start; increase sigma_right")
    # F_k(sigma) is real but near the axis its sign depends on where psi sits
    # between its poles; a negative start pins arg to +pi by convention, a
    # T-independent choice that lands in the order-one residual.
    start_arg = 0.0 if start.real > 0 else math.pi
    return (start_arg + turn) / math.pi


def count_compare(datum: SelbergDatum, k: int, T: float,
                  ctx: EvalContext | None = None) -> CountReport:
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
    lv = z_grid(datum, low, k, ctx)[0]
    low_count = int(np.count_nonzero(np.sign(lv[:-1]) * np.sign(lv[1:]) < 0))
    table = scan_zeros(datum, k, SCAN_T_MIN, T, ctx)
    n_line = low_count + len(table.gammas)
    theta_term = theta(datum, T).theta / math.pi
    s_measured = argument_S(datum, k, T, ctx)
    residual = n_line - theta_term - s_measured
    return CountReport(datum.name, float(T), int(k), n_line, theta_term, s_measured, residual)


def contour_count(datum: SelbergDatum, selector: str, k: int, rect: Rectangle,
                  ctx: EvalContext | None = None) -> int:
    """Argument-principle zero count of F_k or f_k inside a rectangle.

    The rectangle must sit off the real axis (t_min >= 1), which keeps every
    pole of F_k and f_k outside: all of them are real apart from s = 1.  The
    count is the winding number of one phase walk of F_k or f_k around the
    boundary, counterclockwise from (sigma_min, t_min) (see _phase_walk), so
    no derivative and no quadrature enter it.
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
    if rect.sigma_min < REAL_MIN + CAUCHY_RADIUS or rect.sigma_max > REAL_MAX - CAUCHY_RADIUS:
        raise RangeError("rectangle leaves the evaluation box")

    def values(s: np.ndarray) -> np.ndarray:
        if selector == "coeff":
            return coeff_stack_grid(datum, s, k, ctx)[k]
        return chain_grid(datum, s, k, ctx)[1][k]

    corners = [complex(rect.sigma_min, rect.t_min), complex(rect.sigma_max, rect.t_min),
               complex(rect.sigma_max, rect.t_max), complex(rect.sigma_min, rect.t_max)]
    turn, samples = _phase_walk(values, corners + corners[:1], InconclusiveContourError)
    for edge, vals in enumerate(samples):
        small = np.abs(vals)
        if float(small.min()) < 1e-8 * max(float(small.max()), 1e-30):
            raise InconclusiveContourError(
                f"|{selector}| nearly vanishes on edge {edge}; shift the rectangle"
            )
    w = turn / (2.0 * math.pi)
    n = round(w)
    if abs(w - n) >= 0.1:
        raise InconclusiveContourError(f"winding number {w} too far from an integer")
    return int(n)


def mirror_sum_check(datum: SelbergDatum, k: int, t: float, window: float,
                     ctx: EvalContext | None = None, c_budget: float = 10.0) -> MirrorReport:
    """Compare d/dt (Z^(k+1)/Z^(k)) at t with -sum 1/(t-gamma)^2.

    The sum runs over zeros of Z^(k) within the window; the tail beyond it
    is bounded by 2 rho / W + 4 / W^2 with rho the local zero density.  The
    implied constant c_fit = t * excess should stay of order one.
    """
    ctx = ctx or DEFAULT_CONTEXT
    if not (0 <= k <= SCAN_K_MAX):
        raise RangeError(f"mirror check supports k <= {SCAN_K_MAX}")
    if not math.isfinite(c_budget):
        raise RangeError(f"c_budget must be finite, got {c_budget}")
    if window < 5.0:
        raise RangeError("window must be at least 5")
    if t - window < SCAN_T_MIN or t + window > SCAN_T_MAX:
        raise RangeError("window must stay inside the scannable range [5, 500]")
    table = scan_zeros(datum, k, t - window, t + window, ctx)
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
