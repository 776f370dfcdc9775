"""Seeded operation lists for the three workloads, their execution and checks.

A workload is a sequence of rounds, and round r is a pure function of
(seed, r).  Every round draws the same kinds of operation (datum,
derivative order); each stream of draws places its points by a scrambled
van der Corput sequence, so that the first 2^m draws put exactly one point
in each 2^-m-th of the stream's range, at a seeded place inside it.  Any run
of whole rounds therefore samples the input space evenly whatever the seed,
which keeps run-to-run spread low while every seed gives other inputs.
hardyz only receives the generated inputs.

zeros     rounds of two sessions, zeta then chi4; a session is
          interlace_audit(datum, k, t0, t0 + 4) for k = 0, 1, 2 on one
          window in [30, 300].  Windows of one datum never overlap, so the
          only scan-cache hits are the two scans that consecutive orders of
          a session share.
tabulate  z_grid(datum, linspace(t0, t1, 2000), 0) for zeta and chi4 on
          windows of log-uniform width 2..495 ending at t1 in [250, 500].
          The batch's highest t sets its series length, so ending every
          window in the upper half keeps one datum's op costs within a
          factor 2 (a steady median latency), while wide windows from low
          t0 still pay the full length at every point.
count     count_compare(zeta, 0, T) twice with T in [50, 395], and
          contour_count(zeta, "chain", k, Rectangle(-2, 3, t0, t0 + 30)) for
          k = 0, 1, 2 with t0 in [30, 170], as in criteria c05 and c07.  Zeta
          only: mpmath checks every output, and the op costs stay within a
          factor 5 of each other, which keeps the latency quantiles steady.
"""

from __future__ import annotations

import hashlib
import json
import random

import mpmath
import numpy as np

WORKLOADS = ("zeros", "tabulate", "count")
DATA = ("zeta", "chi4")

# zeros: per datum, [30, 300] holds 2^6 slots of width 270/64; a session
# puts a width-4 window in one slot, so a workload has 64 rounds
ZEROS_T0, ZEROS_T1, ZEROS_WIDTH = 30.0, 300.0, 4.0
ZEROS_BITS = 6
ZEROS_ORDERS = (0, 1, 2)

# tabulate: TAB_PER_ROUND windows per datum and round
TAB_T0, TAB_T1_MIN, TAB_T1 = 5.0, 250.0, 500.0
TAB_MIN_WIDTH = 2.0
TAB_POINTS = 2000
TAB_PER_ROUND = 5

# count: heights and rectangle windows, and the least Newton distance
# |Z^(k) / Z^(k+1)| from a zero on the critical line that an edge or a
# height must keep (see _clear_of_zeros)
COUNT_T = (50.0, 395.0)
COUNTS_PER_ROUND = 2
CONTOUR_T0 = (30.0, 170.0)
CONTOUR_HEIGHT = 30.0
CONTOUR_ORDERS = (0, 1, 2)
EDGE_CLEARANCE = 0.1
EDGE_NUDGE = 0.25

STREAM_BITS = 10
CHI4 = [0, 1, 0, -1]


def round_ops(workload: str) -> int:
    """Operations in one round of a workload."""
    return {
        "zeros": len(DATA) * len(ZEROS_ORDERS),
        "tabulate": len(DATA) * TAB_PER_ROUND,
        "count": COUNTS_PER_ROUND + len(CONTOUR_ORDERS),
    }[workload]


def _stream(seed: int, key: str, r: int, bits: int = STREAM_BITS) -> float:
    """Point r in [0, 1) of an Owen-scrambled van der Corput sequence.

    The bit-reversed index picks a cell of width 2^-bits; each of its digits
    is flipped by a seeded coin that depends on the digits above it, and the
    point sits at a seeded place inside the cell.  Cells repeat after 2^bits
    points.
    """
    r %= 1 << bits
    digits = [(r >> i) & 1 for i in range(bits)]  # bit reversal: low bit first
    cell = 0
    for level, d in enumerate(digits):
        prefix = "".join(map(str, digits[:level]))
        flip = random.Random(f"{key}:{seed}:{prefix}").getrandbits(1)
        cell = (cell << 1) | (d ^ flip)
    inside = random.Random(f"{key}:{seed}:in:{r}").random()
    return (cell + inside) / (1 << bits)


def _zeros_round(seed: int, r: int) -> list[tuple]:
    if r >= 1 << ZEROS_BITS:
        return []
    slot = (ZEROS_T1 - ZEROS_T0) / (1 << ZEROS_BITS)
    ops = []
    for name in DATA:
        u = _stream(seed, f"zeros:{name}", r, ZEROS_BITS) * (1 << ZEROS_BITS)
        cell = int(u)
        t0 = round(ZEROS_T0 + cell * slot + (u - cell) * (slot - ZEROS_WIDTH), 6)
        ops.extend(("interlace", name, k, t0, t0 + ZEROS_WIDTH) for k in ZEROS_ORDERS)
    return ops


def _tabulate_round(seed: int, r: int) -> list[tuple]:
    ops = []
    for name in DATA:
        for i in range(r * TAB_PER_ROUND, (r + 1) * TAB_PER_ROUND):
            t1 = TAB_T1_MIN + _stream(seed, f"tab:{name}:t1", i) * (TAB_T1 - TAB_T1_MIN)
            width = TAB_MIN_WIDTH * ((t1 - TAB_T0) / TAB_MIN_WIDTH) ** _stream(seed, f"tab:{name}:width", i)
            ops.append(("tabulate", name, round(t1 - width, 6), round(t1, 6), TAB_POINTS))
    random.Random(f"tab:{seed}:{r}").shuffle(ops)
    return ops


def _newton_distance(t: float, k: int) -> float:
    """|Z^(k)(t) / Z^(k+1)(t)| for zeta, about the distance to the nearest zero of Z^(k).

    Computed with mpmath, never with hardyz.
    """
    with mpmath.workdps(15):
        return float(abs(mpmath.siegelz(t, derivative=k) / mpmath.siegelz(t, derivative=k + 1)))


def _clear_of_zeros(ts: tuple[float, ...], k: int) -> tuple[float, ...]:
    """Shift the heights ts together until each is clear of zeros of zeta's Z^(k).

    An edge or tracking endpoint within a few hundredths of a zero makes a
    single contour_count or argument_S call 10 to 300 times slower (the
    trapezoid rule doubles its nodes until the peak is resolved), which
    contour_count's own error text asks callers to avoid by shifting the
    rectangle.  The benchmark follows that advice, so those slow cases are
    not measured.
    """
    while any(_newton_distance(t, k) < EDGE_CLEARANCE for t in ts):
        ts = tuple(round(t + EDGE_NUDGE, 6) for t in ts)
    return ts


def _count_round(seed: int, r: int) -> list[tuple]:
    ops = []
    for i in range(r * COUNTS_PER_ROUND, (r + 1) * COUNTS_PER_ROUND):
        T = round(COUNT_T[0] + _stream(seed, "count:T", i) * (COUNT_T[1] - COUNT_T[0]), 6)
        (T,) = _clear_of_zeros((T,), 0)
        ops.append(("count", "zeta", T))
    for k in CONTOUR_ORDERS:
        t0 = round(CONTOUR_T0[0] + _stream(seed, f"contour:{k}", r) * (CONTOUR_T0[1] - CONTOUR_T0[0]), 6)
        t0, t1 = _clear_of_zeros((t0, t0 + CONTOUR_HEIGHT), k)
        ops.append(("contour", "zeta", k, t0, t1))
    random.Random(f"count:{seed}:{r}").shuffle(ops)
    return ops


def make_round(workload: str, seed: int, r: int) -> list[tuple]:
    """The operations of round r; an empty list once the workload is exhausted."""
    return {"zeros": _zeros_round, "tabulate": _tabulate_round, "count": _count_round}[workload](seed, r)


def run_op(hz, data: dict, op: tuple):
    """Execute one operation through hardyz's public API and return its output."""
    kind, name = op[0], op[1]
    datum = data[name]
    if kind == "interlace":
        return hz.interlace_audit(datum, op[2], op[3], op[4])
    if kind == "tabulate":
        return hz.z_grid(datum, np.linspace(op[2], op[3], op[4]), 0)
    if kind == "count":
        return hz.count_compare(datum, 0, op[2])
    if kind == "contour":
        return hz.contour_count(datum, "chain", op[2], hz.Rectangle(-2.0, 3.0, op[3], op[4]))
    raise ValueError(f"unknown operation {kind!r}")


def fingerprint(op: tuple, out) -> str:
    """Exact digest of an operation's output, for comparing two runs."""
    if op[0] == "tabulate":
        vals, resid = out
        return hashlib.sha256(vals.tobytes() + resid.tobytes()).hexdigest()
    if op[0] == "contour":
        return str(out)
    return hashlib.sha256(json.dumps(out.to_jsonable()).encode()).hexdigest()


def returned_zeros(hz, data: dict, op: tuple) -> int:
    """Zeros of Z^(k) and Z^(k+1) an interlace op found; served from the scan cache."""
    if op[0] != "interlace":
        return 0
    datum, k, t0, t1 = data[op[1]], op[2], op[3], op[4]
    return len(hz.scan_zeros(datum, k, t0, t1).gammas) + len(hz.scan_zeros(datum, k + 1, t0, t1).gammas)


def returned_points(op: tuple) -> int:
    return op[4] if op[0] == "tabulate" else 0


# Tolerances: the evaluator targets 1e-10 absolute accuracy (README), and
# scan_zeros bisects to refine_tol = 1e-9.
VALUE_TOL = 1e-10
ZERO_TOL = 1e-8
# count_compare's residual bound for k = 0 (acceptance criterion 05)
RESIDUAL_BOUND = 1.5
# oracle budget per run: tabulate operations with one point compared, zeta
# windows whose zeros are each compared with mpmath.zetazero
TAB_CHECK_OPS = 60
ZETAZERO_WINDOWS = 4


class Checker:
    """Checks outputs against independent oracles; run outside the timed interval."""

    def __init__(self, hz, data: dict, seed: int) -> None:
        self.hz = hz
        self.data = data
        self.rng = random.Random(f"check:{seed}")
        self.zetazero_windows = 0
        self.tab_checked = 0

    def __call__(self, op: tuple, out) -> str | None:
        """None when the output is right, else a one-line reason."""
        with mpmath.workdps(25):
            return getattr(self, "_" + op[0])(op, out)

    def _interlace(self, op, rep):
        if rep.violations != 0:
            return f"{rep.violations} interlacing violations"
        if any(g.count < 1 for g in rep.gaps):
            return "a gap without a zero of Z^(k+1) (Rolle)"
        name, k, t0, t1 = op[1:]
        if name != "zeta" or k != 0:
            return None
        gammas = self.hz.scan_zeros(self.data[name], 0, t0, t1).gammas
        n0 = int(mpmath.nzeros(t0))
        expected = int(mpmath.nzeros(t1)) - n0
        if len(gammas) != expected:
            return f"{len(gammas)} zeros of Z on [{t0}, {t1}], mpmath.nzeros says {expected}"
        if self.zetazero_windows < ZETAZERO_WINDOWS:
            self.zetazero_windows += 1
            for i, g in enumerate(gammas):
                ref = float(mpmath.zetazero(n0 + 1 + i).imag)
                if abs(g - ref) > ZERO_TOL:
                    return f"zero {g} differs from mpmath.zetazero {ref}"
        return None

    def _tabulate(self, op, out):
        if self.tab_checked >= TAB_CHECK_OPS:
            return None
        self.tab_checked += 1
        name, t0, t1, n = op[1:]
        i = self.rng.randrange(n)
        t = float(np.linspace(t0, t1, n)[i])
        if name == "zeta":
            ref, got = float(mpmath.siegelz(t)), float(out[0][i])
        else:
            # no siegelz for chi4; |Z| = |L(1/2 + it)| is sign-free
            ref = float(abs(mpmath.dirichlet(mpmath.mpc(0.5, t), CHI4)))
            got = abs(float(out[0][i]))
        if abs(got - ref) > VALUE_TOL:
            return f"Z({t}) = {got}, oracle {ref}"
        return None

    def _count(self, op, rep):
        T = op[2]
        if abs(rep.residual) > RESIDUAL_BOUND:
            return f"counting residual {rep.residual} beyond {RESIDUAL_BOUND}"
        ref = int(mpmath.nzeros(T))
        if rep.n_line != ref:
            return f"n_line({T}) = {rep.n_line}, mpmath.nzeros says {ref}"
        return None

    def _contour(self, op, n):
        name, k, t0, t1 = op[1:]
        on_line = len(self.hz.scan_zeros(self.data[name], k, t0, t1).gammas)
        if n != on_line:
            return f"rectangle count {n}, on-line count {on_line}"
        return None
