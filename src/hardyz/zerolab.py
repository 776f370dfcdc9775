"""Zero tables and structural checks on Z^(k).

scan_zeros        sign-scan on a density-matched grid, brackets refined by
                  safeguarded Halley steps at k >= 1 and Illinois
                  (regula-falsi) steps at k = 0
interlace_audit   zeros of Z^(k+1) between consecutive zeros of Z^(k)
argument_S        S(T) by a phase walk of F_k
count_compare     on-line count against theta/pi + S(T)
contour_count     argument-principle count in a rectangle off the real axis,
                  by a phase walk of F_k or f_k around its boundary
mirror_sum_check  d/dt (Z^(k+1)/Z^(k)) against the mirrored zero sum

The scan context (EvalContext) sets only the scan grid and the refinement
tolerance, so only the functions that scan take it.  Scan results are
cached in-process per (datum, k, range, context), in a bounded
functools.lru_cache on _scan; a datum's equality covers its coefficient
provider.  Scans pass whole grids to z_grid: every value is a function of
(datum, t, k) alone, whatever batch it is computed in.  At k >= 1 a
refinement round takes Z^(k), Z^(k+1) and Z^(k+2) from one chain._z_stack
call, since the Cauchy circle behind Z^(k) gives the two extra rows at no
extra L-value; at k = 0 they would cost that circle, 64 L-values a point,
so k = 0 refines by Illinois steps on Z alone.  argument_S and
contour_count take no context and share one arg-change integrator,
_phase_walk, which evaluates all the points of one refinement round in one
batch.

The reports are frozen dataclasses with no rendering code of their own:
fmtio.to_json prints them field by field, ZeroTable.to_csv_text goes
through fmtio.to_csv, and to_jsonable() is dataclasses.asdict, the same
fields as a dict for json.dumps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .catalog import SelbergDatum
from .chain import _z_stack, chain_grid, coeff_stack_grid, z_grid
from .context import DEFAULT_CONTEXT, EvalContext
from .errors import (InconclusiveContourError, PrecisionError, ProximityError,
                     RangeError, TrackingError, check_order)
from .evaluator import CAUCHY_RADIUS
from .fmtio import to_csv
from .gamma_factor import REAL_MAX, REAL_MIN, psi_pole_distance, theta, theta_linear_coeff

SCAN_T_MIN = 5.0
SCAN_T_MAX = 500.0
SCAN_K_MAX = 6


class _Report:
    """The JSON form shared by the report dataclasses."""

    def to_jsonable(self) -> dict:
        """The fields in declaration order, nested GapRecords as dicts."""
        return asdict(self)


@dataclass(frozen=True)
class ZeroTable(_Report):
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
        rows = ((self.k, g, r, b) for g, r, b in zip(self.gammas, self.residuals, self.bracket_widths))
        return to_csv(("k", "t", "residual", "bracket_width"), rows)


@dataclass(frozen=True)
class GapRecord:
    left: float
    right: float
    inner: tuple[float, ...]
    count: int


@dataclass(frozen=True)
class InterlaceReport(_Report):
    name: str
    k: int
    t0: float
    t1: float
    gaps: tuple[GapRecord, ...]
    violations: int


@dataclass(frozen=True)
class CountReport(_Report):
    name: str
    T: float
    k: int
    n_line: int
    theta_term: float
    s_measured: float
    residual: float


@dataclass(frozen=True)
class Rectangle:
    sigma_min: float
    sigma_max: float
    t_min: float
    t_max: float


@dataclass(frozen=True)
class MirrorReport(_Report):
    name: str
    k: int
    t: float
    window: float
    lhs: float
    truncated_sum: float
    tail_bound: float
    c_fit: float
    agree: bool


def _density_slope(datum: SelbergDatum, t: float) -> float:
    """theta'(t), closed-form Stirling main term, floored at 1."""
    d = datum.degree
    slope = 0.5 * d * (math.log(max(t, 2.0) / (2.0 * math.pi)) + 1.0) + theta_linear_coeff(datum)
    return max(slope, 1.0)


def _scan_grid(datum: SelbergDatum, t0: float, t1: float, ctx: EvalContext) -> np.ndarray:
    pts = [t0]
    t = t0
    while t < t1:
        t = min(t1, t + ctx.scan_safety * math.pi / _density_slope(datum, t))
        pts.append(t)
    return np.array(pts)


def _refine_brackets(f, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, fhi: np.ndarray,
                     tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shrink sign-change brackets of f until each is at most tol wide.

    f maps an array of abscissae to rows over them, f alone (one row, or a
    1-D array) or f, f' and f'', and the number of rows picks the step
    rule.  flo and fhi are f at lo and hi, of opposite signs.  Each round is
    one call of f on the brackets still open, and the first point of every
    bracket is its regula-falsi point.

    One row: Illinois steps.  The end kept twice in a row has its stored
    value halved, so the secant cannot stall at one end.

    Three rows: Halley steps delta = N/(1 + c N), N = -f/f', c = f''/(2 f'),
    from the last point.  A step that is not finite, leaves the bracket or
    is longer than half the step before it (after a bisection: than the
    bracket) bisects instead.  Once the predicted error |c| delta^2 of a
    step y is below 0.1 tol, the next round evaluates the triple y - h, y,
    y + h with h = 0.45 tol.  When f has opposite signs at y - h and y + h
    the bracket closes there, with y as its zero and |f(y)| as its
    residual; a triple that does not straddle the zero still tightens the
    bracket, and a bisection follows it.

    Shared: a bracket whose width has not halved in three rounds bisects,
    unless its closing triple is due (a healthy Illinois bracket often keeps
    one end for two rounds before the step jumps past the zero, and a
    two-round test would bisect in place of that jump).  Points are clamped
    0.45 tol inside the bracket, which closes it once a step sits within
    that distance of an end; a closing triple is clamped inside the start
    bracket only, so that a centre within h of an end keeps its place and
    the triple reaches past that end.  A point moves an end only from inside
    the bracket, so after every point lo < hi holds with f of opposite signs
    at the ends.  A value of exactly 0.0 closes its bracket at that point.

    Returns (lo, hi, gamma, residual): gamma is the centre of the closing
    triple or else the midpoint, and residual is |f(gamma)| where a triple
    gave it and NaN elsewhere.
    """
    lo, hi, flo, fhi = (np.array(a, dtype=np.float64) for a in (lo, hi, flo, fhi))
    n, h, start = lo.size, 0.45 * tol, np.array([lo, hi])
    kept = np.zeros(n, dtype=np.int8)  # +1: lo moved last round, -1: hi did
    past = np.full((3, n), np.inf)  # widths one, two, three rounds ago
    # the Halley rule's next point (NaN: bisect), the length of its last
    # step and whether its closing triple is due; the Illinois rule reads
    # the stored end values, the Halley rule only their signs
    nxt, step, due = np.full(n, np.nan), np.full(n, np.inf), np.zeros(n, dtype=bool)
    gamma, residual = np.full(n, np.nan), np.full(n, np.nan)
    halley = False
    live = np.flatnonzero(hi - lo > tol)
    while live.size:
        a, b, fa, fb = lo[live], hi[live], flo[live], fhi[live]
        w = b - a
        x = nxt[live] if halley else b - fb * (w / (fb - fa))
        slow = ((w > 0.5 * past[2, live]) & ~due[live]) | np.isnan(x)
        tri = due[live] & ~slow
        x = np.clip(np.where(slow, a + 0.5 * w, x), np.where(tri, start[0, live], a) + h,
                    np.where(tri, start[1, live], b) - h)
        trio, xm, xp = live[tri], x[tri] - h, x[tri] + h
        rows = np.atleast_2d(f(np.concatenate([xm, x, xp])))
        halley = rows.shape[0] == 3
        m, centre = xm.size, slice(xm.size, xm.size + x.size)
        fm, fx, fp = rows[0, :m], rows[0, centre], rows[0, centre.stop:]
        for idx, p, fv in ((trio, xm, fm), (live, x, fx), (trio, xp, fp)):
            inside = (lo[idx] < p) & (p < hi[idx])
            zero = inside & (fv == 0.0)
            to_lo = inside & (np.sign(fv) == np.sign(flo[idx]))
            to_hi = inside & ~(to_lo | zero)
            moved_lo, moved_hi, hit = idx[to_lo], idx[to_hi], idx[zero]
            fhi[moved_lo[kept[moved_lo] == 1]] *= 0.5
            flo[moved_hi[kept[moved_hi] == -1]] *= 0.5
            lo[moved_lo], flo[moved_lo], kept[moved_lo] = p[to_lo], fv[to_lo], 1
            hi[moved_hi], fhi[moved_hi], kept[moved_hi] = p[to_hi], fv[to_hi], -1
            lo[hit] = hi[hit] = p[zero]
        shut = (np.sign(fm) * np.sign(fp) < 0) & (start[0, trio] <= xm) & (xp <= start[1, trio])
        idx = trio[shut]
        lo[idx], hi[idx], flo[idx], fhi[idx] = xm[shut], xp[shut], fm[shut], fp[shut]
        gamma[idx], residual[idx] = x[tri][shut], np.abs(fx[tri][shut])
        if halley:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                newton = -fx / rows[1, centre]
                c = rows[2, centre] / (2.0 * rows[1, centre])
                delta = newton / (1.0 + c * newton)
                y = x + delta
                ok = (np.isfinite(y) & (lo[live] < y) & (y < hi[live])
                      & (np.abs(delta) <= 0.5 * step[live]) & ~tri)
                due[live] = ok & (np.abs(c) * delta ** 2 < 0.1 * tol)
            nxt[live] = np.where(ok, y, np.nan)
            step[live] = np.where(ok, np.abs(delta), hi[live] - lo[live])
        past[1:, live] = past[:-1, live]
        past[0, live] = w
        live = live[hi[live] - lo[live] > tol]
    mid = np.isnan(gamma)
    gamma[mid] = 0.5 * (lo[mid] + hi[mid])
    return lo, hi, gamma, residual


def scan_zeros(datum: SelbergDatum, k: int, t0: float, t1: float,
               ctx: EvalContext | None = None) -> ZeroTable:
    """Sign-scan [t0, t1] for zeros of Z^(k) and refine each bracket.

    The grid step tracks the local zero density (scan_safety times the mean
    gap).  Each sign-change bracket shrinks to refine_tol (see
    _refine_brackets): at k >= 1 by safeguarded Halley steps on Z^(k),
    Z^(k+1) and Z^(k+2), ending in a closing triple y, y +- 0.45 refine_tol
    whose centre is the reported zero and gives its residual; at k = 0,
    where Z' would cost a Cauchy circle per point, by Illinois steps, with
    the bracket midpoint as the zero.  Every reported zero lies within
    refine_tol/2 of both ends of its bracket.  Near-tangential dips of
    |Z^(k)| without a sign change are listed as advisory t values.  Tables
    are cached (see _scan).
    """
    if not (SCAN_T_MIN <= t0 < t1 <= SCAN_T_MAX):
        raise RangeError(f"scan range must satisfy {SCAN_T_MIN} <= t0 < t1 <= {SCAN_T_MAX}")
    check_order(k, SCAN_K_MAX, RangeError, "scan order k")
    return _scan(datum, int(k), float(t0), float(t1), ctx or DEFAULT_CONTEXT)


# A table serves every later call with the same arguments.  Consecutive
# interlace_audit orders share one, and a CLI process makes a single call.
# The widest reuse in the repository is perfbench's zeros workload: 512
# tables at most (64 rounds of two data at orders 0..3), each read again
# when its outputs are checked.  A table of a narrow window takes a few
# hundred bytes and one of [5, 500] at k = 6 about 30 kB, so 512 of them
# stay within 15 MB.
@lru_cache(maxsize=512)
def _scan(datum: SelbergDatum, k: int, t0: float, t1: float, ctx: EvalContext) -> ZeroTable:
    """scan_zeros on validated arguments."""
    grid = _scan_grid(datum, t0, t1, ctx)
    vals = z_grid(datum, grid, k)[0]

    exact = np.flatnonzero(vals == 0.0)
    change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)

    def evaluate(x):
        # Z^(k+1) and Z^(k+2) come with the Cauchy circle that Z^(k) needs at
        # k >= 1; at k = 0 they would cost a circle of 64 L-values per point
        return _z_stack(datum, x, k + 2)[0][k:] if k else z_grid(datum, x, 0)[0]

    lo, hi, gamma, residual = _refine_brackets(evaluate, grid[change], grid[change + 1],
                                               vals[change], vals[change + 1], ctx.refine_tol)
    open_res = np.isnan(residual)
    if open_res.any():
        residual[open_res] = np.abs(z_grid(datum, gamma[open_res], k)[0])
    width = hi - lo

    records = sorted(
        [(float(g), float(r), float(w)) for g, r, w in zip(gamma, residual, width)]
        + [(float(grid[i]), 0.0, 0.0) for i in exact]
    )

    absv = np.abs(vals)
    # the median as np.median takes it, whose NaN check imports numpy.ma
    srt = np.sort(absv)
    scale = 0.5 * float(srt[(srt.size - 1) // 2] + srt[srt.size // 2])
    advisory = []
    for i in range(1, len(vals) - 1):
        if absv[i] < absv[i - 1] and absv[i] < absv[i + 1] and absv[i] < 1e-3 * scale:
            if i - 1 not in change and i not in change:
                advisory.append(float(grid[i]))

    return ZeroTable(
        datum.name, k, t0, t1,
        tuple(r[0] for r in records),
        tuple(r[1] for r in records),
        tuple(r[2] for r in records),
        tuple(advisory),
    )


def interlace_audit(datum: SelbergDatum, k: int, t0: float, t1: float,
                    ctx: EvalContext | None = None) -> InterlaceReport:
    """Count zeros of Z^(k+1) strictly inside each gap of Z^(k) zeros.

    A gap with exactly one inner zero is the interlacing pattern; anything
    else is recorded and tallied as a violation.  Rolle guarantees at least
    one inner zero unconditionally, so count = 0 would indicate a scan
    artifact rather than mathematics.
    """
    check_order(k, SCAN_K_MAX - 1, RangeError, "interlace audit order k")
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


def _tracking_abscissa(datum: SelbergDatum, k: int) -> float:
    """The right end 6 + 2k of the tracking path, nudged rightward off any
    real pole of psi; the guard passes there for every built-in datum."""
    base = 6.0 + 2.0 * k
    for j in range(9):
        sigma = base + j / 8.0
        if psi_pole_distance(datum, sigma) >= 0.45:
            return sigma
    raise PrecisionError("could not place the tracking line away from psi poles")


def _guard_tracking_line(datum: SelbergDatum, k: int, sigma: float, t_top: float) -> None:
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
    f = coeff_stack_grid(datum, pts, max(k, 1))
    psi = -2.0 * f[1]
    if np.any(psi.real >= 0.0):
        raise PrecisionError(f"Re psi >= 0 on the tracking line sigma = {sigma:g}")
    if np.any(np.abs(f[k]) == 0.0):
        raise PrecisionError(f"f_k vanishes on the tracking line sigma = {sigma:g}")
    ratio = chain_grid(datum, pts, k)[1][k] / f[k]
    if np.any(np.abs(ratio - 1.0) > 0.9):
        raise PrecisionError(f"F_k strays from its dominant power on the tracking line sigma = {sigma:g}")


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


def argument_S(datum: SelbergDatum, k: int, T: float) -> float:
    """S(T) for F_k: (1/pi) arg variation along sigma_r -> sigma_r + iT -> 1/2 + iT.

    The variation comes from one phase walk of F_k along the path (see
    _phase_walk).  The start is on the real axis where F_k is real, so the
    walked variation is the full argument.
    """
    if not (SCAN_T_MIN <= T <= SCAN_T_MAX):
        raise RangeError(f"argument tracking supports {SCAN_T_MIN} <= T <= {SCAN_T_MAX}")
    check_order(k, SCAN_K_MAX, RangeError, "argument tracking order k")
    sigma = _tracking_abscissa(datum, k)
    _guard_tracking_line(datum, k, sigma, T)
    turn, samples = _phase_walk(lambda s: chain_grid(datum, s, k)[1][k],
                                [sigma, complex(sigma, T), complex(0.5, T)], TrackingError)
    start = complex(samples[0][0])
    if abs(start) < 1e-9 or abs(start.imag) > 1e-6 * abs(start):
        raise PrecisionError(f"F_k not usably real at the tracking start sigma = {sigma:g}")
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
    if not (20.0 <= T <= SCAN_T_MAX):
        raise RangeError(f"count comparison supports 20 <= T <= {SCAN_T_MAX:g}")
    check_order(k, SCAN_K_MAX, RangeError, "count comparison order k")
    low = np.arange(0.05, SCAN_T_MIN + 0.005, 0.005)
    lv = z_grid(datum, low, k)[0]
    low_count = int(np.count_nonzero(np.sign(lv[:-1]) * np.sign(lv[1:]) < 0))
    table = scan_zeros(datum, k, SCAN_T_MIN, T, ctx)
    n_line = low_count + len(table.gammas)
    theta_term = theta(datum, T).theta / math.pi
    s_measured = argument_S(datum, k, T)
    residual = n_line - theta_term - s_measured
    return CountReport(datum.name, float(T), int(k), n_line, theta_term, s_measured, residual)


def contour_count(datum: SelbergDatum, selector: str, k: int, rect: Rectangle) -> int:
    """Argument-principle zero count of F_k or f_k inside a rectangle.

    The rectangle must sit off the real axis (t_min >= 1), which keeps every
    pole of F_k and f_k outside: all of them are real apart from s = 1.  The
    count is the winding number of one phase walk of F_k or f_k around the
    boundary, counterclockwise from (sigma_min, t_min) (see _phase_walk), so
    no derivative and no quadrature enter it.
    """
    if selector not in ("chain", "coeff"):
        raise RangeError("selector must be 'chain' (F_k) or 'coeff' (f_k)")
    check_order(k, SCAN_K_MAX, RangeError, "contour counting order k")
    # NaN passes every comparison below, so it is refused first
    for name, val in vars(rect).items():
        if not math.isfinite(val):
            raise RangeError(f"{name} must be finite, got {val}")
    if not (rect.sigma_min < rect.sigma_max and rect.t_min < rect.t_max):
        raise RangeError("degenerate rectangle")
    if rect.t_min < 1.0 or rect.t_max > SCAN_T_MAX:
        raise RangeError(f"rectangle must satisfy 1 <= t_min < t_max <= {SCAN_T_MAX:g}")
    if rect.sigma_min < REAL_MIN + CAUCHY_RADIUS or rect.sigma_max > REAL_MAX - CAUCHY_RADIUS:
        raise RangeError("rectangle leaves the evaluation box")

    def values(s: np.ndarray) -> np.ndarray:
        if selector == "coeff":
            return coeff_stack_grid(datum, s, k)[k]
        return chain_grid(datum, s, k)[1][k]

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
    check_order(k, SCAN_K_MAX, RangeError, "mirror check order k")
    # NaN passes every range comparison below, so it is refused first
    for name, val in (("t", t), ("window", window), ("c_budget", c_budget)):
        if not math.isfinite(val):
            raise RangeError(f"{name} must be finite, got {val}")
    if window < 5.0:
        raise RangeError("window must be at least 5")
    if t - window < SCAN_T_MIN or t + window > SCAN_T_MAX:
        raise RangeError(f"window must stay inside the scannable range [{SCAN_T_MIN:g}, {SCAN_T_MAX:g}]")
    table = scan_zeros(datum, k, t - window, t + window, ctx)
    gam = np.array(table.gammas)
    if gam.size and float(np.min(np.abs(gam - t))) <= ctx.refine_tol:
        raise ProximityError(f"t = {t} coincides with a zero of Z^({k})")
    z0, z1, z2 = _z_stack(datum, np.array([float(t)]), k + 2)[0][k:, 0]
    lhs = z2 / z0 - (z1 / z0) ** 2
    truncated = float(np.sum(1.0 / (t - gam) ** 2)) if gam.size else 0.0
    density = theta(datum, t).theta_prime / math.pi
    tail_bound = 2.0 * density / window + 4.0 / window ** 2
    c_fit = t * max(0.0, abs(lhs + truncated) - tail_bound)
    return MirrorReport(datum.name, int(k), float(t), float(window),
                        float(lhs), truncated, float(tail_bound), float(c_fit),
                        bool(c_fit <= c_budget))
