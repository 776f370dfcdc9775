"""Zero scanning, interlacing audits, counting, contour counts, and the
mirrored-zero-sum check."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hardyz
from hardyz import zerolab
from hardyz.catalog import PeriodicProvider, builtin
from hardyz.chain import chain_grid, z_grid
from hardyz.errors import (InconclusiveContourError, PrecisionError, ProximityError,
                           RangeError, TrackingError)
from hardyz.gamma_factor import theta
from hardyz.zerolab import (Rectangle, _phase_walk, _refine_brackets, argument_S,
                            contour_count, count_compare, interlace_audit,
                            mirror_sum_check, scan_zeros)

from oracles import (CHI4_ZEROS, ZETA_PRIME_ZEROS, ZETA_SECOND_ZEROS,
                     ZETA_ZEROS, theta_reference)


def test_scan_zeta_zeros_classical():
    zeta = builtin("zeta")
    table = scan_zeros(zeta, 0, 10.0, 51.0)
    assert len(table.gammas) == len(ZETA_ZEROS)
    assert np.max(np.abs(np.array(table.gammas) - np.array(ZETA_ZEROS))) < 1e-8
    assert np.all(np.array(table.bracket_widths) < 1e-8)


def test_scan_derivative_zeros_multiprecision():
    zeta = builtin("zeta")
    t1 = scan_zeros(zeta, 1, 8.0, 30.0)
    assert np.max(np.abs(np.array(t1.gammas) - np.array(ZETA_PRIME_ZEROS))) < 1e-8
    t2 = scan_zeros(zeta, 2, 6.0, 27.0)
    assert np.max(np.abs(np.array(t2.gammas) - np.array(ZETA_SECOND_ZEROS))) < 1e-8


def test_scan_chi4_zeros_multiprecision():
    table = scan_zeros(builtin("chi4"), 0, 5.0, 14.0)
    assert np.max(np.abs(np.array(table.gammas) - np.array(CHI4_ZEROS))) < 1e-8


@pytest.mark.parametrize("name", ["zeta", "chi4"])
def test_z_grid_batch_invariance(name):
    # a value is a function of (datum, t, k): permuted batches, random
    # subsets and single points give the same bits
    datum = builtin(name)
    rng = np.random.default_rng(20)
    ts = np.sort(rng.uniform(5.0, 500.0, 96))
    for k in (0, 1, 3):
        full = z_grid(datum, ts, k)[0]
        perm = rng.permutation(ts.size)
        assert np.array_equal(z_grid(datum, ts[perm], k)[0], full[perm])
        sub = np.sort(rng.choice(ts.size, 17, replace=False))
        assert np.array_equal(z_grid(datum, ts[sub], k)[0], full[sub])
        for i in sub[:4]:
            assert z_grid(datum, ts[i:i + 1], k)[0][0] == full[i]
    # the second scan would be a cache hit without emptying the cache
    zerolab._scan.cache_clear()
    table = scan_zeros(datum, 0, 60.0, 120.0)
    zerolab._scan.cache_clear()
    assert scan_zeros(datum, 0, 60.0, 120.0) == table


def _refine_checked(f, lo, hi, tol=1e-9):
    """Refine with _refine_brackets and check its contract for either step
    rule (f returns one row or three); returns the final ends, the zeros
    and the points each round evaluated."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    rounds = []

    def counted(x):
        rounds.append(x)
        return f(x)

    def value(x):
        return np.atleast_2d(f(x))[0]

    a, b, gamma, residual = _refine_brackets(counted, lo, hi, value(lo), value(hi), tol)
    fa, fb = value(a), value(b)
    assert np.all(b - a <= tol)
    assert np.all((lo <= a) & (b <= hi))
    assert np.all((np.sign(fa) * np.sign(fb) < 0) | ((a == b) & (fa == 0.0)))
    assert np.all((a <= gamma) & (gamma <= b))
    assert np.all((gamma - a <= 0.5 * tol) & (b - gamma <= 0.5 * tol))
    given = ~np.isnan(residual)
    assert np.array_equal(residual[given], np.abs(value(gamma[given])))
    assert len(rounds) <= 2 * math.ceil(math.log2(np.max(hi - lo) / tol))
    return a, b, gamma, rounds


def test_refine_closes_on_exact_zero():
    a, b, _, rounds = _refine_checked(lambda x: 3.0 * (x - 0.25), [0.0], [1.0])
    assert a[0] == b[0] == 0.25
    assert len(rounds) == 1


def test_refine_steep_flat_bottomed():
    def f(x):
        return x ** 10 - 0.5

    # plain regula falsi keeps hi = 1 and creeps up the flat bottom
    lo, hi = 0.0, 1.0
    for _ in range(60):
        x = hi - f(hi) * (hi - lo) / (f(hi) - f(lo))
        lo, hi = (x, hi) if f(x) < 0 else (lo, x)
    assert hi - lo > 0.01
    a, _, _, rounds = _refine_checked(f, [0.0], [1.0])
    assert abs(a[0] - 0.5 ** 0.1) < 1e-9
    assert len(rounds) <= 15
    # Halley steps on the same function
    _, _, gamma, rounds = _refine_checked(lambda x: np.array([f(x), 10 * x ** 9, 90 * x ** 8]),
                                          [0.0], [1.0])
    assert abs(gamma[0] - 0.5 ** 0.1) <= 0.5e-9
    assert len(rounds) <= 8


def test_refine_brackets_close_at_different_rounds():
    lo = [3.0, 6.2, -1.5, math.pi - 4e-10]
    hi = [3.3, 6.3, 1.4, math.pi + 5e-10]
    a, b, _, rounds = _refine_checked(np.sin, lo, hi)
    assert np.allclose(0.5 * (a + b), [math.pi, 2.0 * math.pi, 0.0, math.pi], atol=1e-9)
    # the last bracket is already narrow enough and is never evaluated; the
    # others drop out of the batch as they close
    sizes = [x.size for x in rounds]
    assert sizes[0] == 3
    assert all(m >= n for m, n in zip(sizes, sizes[1:])) and sizes[-1] < sizes[0]
    # Halley steps: one point per open bracket, three for a closing triple
    _, _, gamma, rounds = _refine_checked(lambda x: np.array([np.sin(x), np.cos(x), -np.sin(x)]),
                                          lo, hi)
    assert np.allclose(gamma, [math.pi, 2.0 * math.pi, 0.0, math.pi], atol=0.5e-9)
    assert rounds[0].size == 3 and rounds[-1].size % 3 == 0


def test_refine_halley_closes_polynomial_roots():
    roots = np.array([-2.2, 0.3, 1.7, 3.1, 4.05])
    poly = np.polynomial.Polynomial.fromroots(roots)
    jet = (poly, poly.deriv(), poly.deriv(2))

    def f(x):
        return np.array([p(x) for p in jet])

    lo, hi = roots - [0.12, 0.17, 0.08, 0.2, 0.05], roots + [0.13, 0.09, 0.2, 0.05, 0.07]
    _, _, gamma, rounds = _refine_checked(f, lo, hi)
    assert np.all(np.abs(gamma - roots) <= 0.5e-9)
    # the regula-falsi points, one Halley round and the closing triples
    assert [x.size for x in rounds] == [5, 5, 15]


@pytest.mark.parametrize("lie", ["sign", "zero", "nan"])
def test_refine_halley_falls_back_to_bisection(lie):
    # derivative rows that lie: every Halley step is refused, and after the
    # regula-falsi point each point halves the bracket
    fake = {"sign": lambda x: (-np.cos(x), np.sin(x)),
            "zero": lambda x: (0.0 * x, 0.0 * x),
            "nan": lambda x: (np.full_like(x, np.nan),) * 2}[lie]

    def f(x):
        return np.array([np.sin(x), *fake(x)])

    _, _, gamma, rounds = _refine_checked(f, [3.0], [3.4])
    assert abs(gamma[0] - math.pi) <= 0.5e-9
    assert all(x.size == 1 for x in rounds)
    for r in range(1, len(rounds)):
        seen = [3.0, 3.4] + [float(x[0]) for x in rounds[:r]]
        assert any(rounds[r][0] == p + 0.5 * (q - p) for p in seen for q in seen if p < q)


@pytest.mark.parametrize("noise", [2e-10, 2e-6])
def test_refine_halley_keeps_the_bracket_under_noise(noise):
    # f changes sign at random within noise/2 of each root; the point each
    # round takes in a bracket (the centre of a closing triple, whose ends
    # may reach past the bracket) must sit between consecutive points seen
    # before, where f changes sign, so the bracket stayed valid after
    # every round
    rng = np.random.default_rng(41)
    roots = np.arange(40) + rng.uniform(0.2, 0.8, 40)
    phase = rng.uniform(0.0, 2.0 * math.pi)

    def f(x):
        u = 2.0 * (x - roots[np.floor(x).astype(int)])
        return np.array([np.sin(u) + noise * np.cos(1e13 * x + phase), 2.0 * np.cos(u),
                         -4.0 * np.sin(u)])

    lo, hi = np.arange(40) + 0.0, np.arange(40) + 1.0 - 1e-9
    tol = 1e-9
    seen = []
    a, b, gamma, _ = _refine_brackets(lambda x: (seen.append(x), f(x))[1], lo, hi,
                                      f(lo)[0], f(hi)[0], tol)
    points = {i: [lo[i], hi[i]] for i in range(40)}
    for x in seen:
        for i in np.unique(np.floor(x).astype(int)):
            taken = np.sort(x[np.floor(x) == i])
            p = taken[taken.size // 2]
            known = np.sort(points[i])
            j = np.searchsorted(known, p)
            assert 0 < j < known.size
            left, right = known[j - 1], known[j]
            assert left < p < right and f(np.array([left]))[0] * f(np.array([right]))[0] < 0
            points[i] += list(taken)
    fa, fb = f(a)[0], f(b)[0]
    assert np.all((a < b) & (np.sign(fa) * np.sign(fb) < 0))
    assert np.all(b - a <= tol)
    assert np.all((gamma - a <= 0.5 * tol) & (b - gamma <= 0.5 * tol))
    if noise < tol:
        assert np.all(np.abs(gamma - roots) <= tol)


def test_scan_refinement_rounds(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(datum, ts, k):
            calls.append(name)
            return fn(datum, ts, k)
        return wrapper

    zerolab._scan.cache_clear()
    monkeypatch.setattr(zerolab, "z_grid", counted("z_grid", z_grid))
    monkeypatch.setattr(zerolab, "_z_stack", counted("_z_stack", zerolab._z_stack))
    table = scan_zeros(builtin("zeta"), 1, 8.0, 30.0)
    assert np.max(np.abs(np.array(table.gammas) - np.array(ZETA_PRIME_ZEROS))) < 1e-8
    # the grid, the regula-falsi points, one Halley round and the closing
    # triples, which give every residual
    assert calls == ["z_grid"] + ["_z_stack"] * 3


def test_scan_validation():
    zeta = builtin("zeta")
    with pytest.raises(RangeError):
        scan_zeros(zeta, 0, 1.0, 30.0)
    with pytest.raises(RangeError):
        scan_zeros(zeta, 0, 10.0, 900.0)
    with pytest.raises(RangeError):
        scan_zeros(zeta, 7, 10.0, 30.0)


def test_scan_leaves_numpy_ma_unimported():
    # np.median's NaN check imports numpy.ma, ~9 ms on each CLI scan
    code = ("import sys; from hardyz import builtin, scan_zeros; "
            "scan_zeros(builtin('zeta'), 0, 10.0, 22.0); print('numpy.ma' in sys.modules)")
    src = str(Path(hardyz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "False"


def test_zero_table_csv_shape():
    table = scan_zeros(builtin("zeta"), 0, 10.0, 22.0)
    lines = table.to_csv_text().splitlines()
    assert lines[0] == "k,t,residual,bracket_width"
    assert len(lines) == 1 + len(table.gammas)
    assert lines[1].startswith("0,14.134725141")


def test_interlace_zeta_clean():
    for k in (0, 1):
        rep = interlace_audit(builtin("zeta"), k, 20.0, 60.0)
        assert rep.violations == 0
        assert all(g.count == 1 for g in rep.gaps)
        for g in rep.gaps:
            assert all(g.left < x < g.right for x in g.inner)


def test_interlace_chi4_clean():
    rep = interlace_audit(builtin("chi4"), 0, 20.0, 80.0)
    assert rep.violations == 0
    assert all(g.count == 1 for g in rep.gaps)


def test_count_compare_zeta_classical():
    zeta = builtin("zeta")
    rep = count_compare(zeta, 0, 100.0)
    assert rep.n_line == 29  # classical zero count below height 100
    assert abs(rep.residual - 1.0) < 1e-3
    rep50 = count_compare(zeta, 0, 50.0)
    assert rep50.n_line == 10
    assert abs(rep50.residual - 1.0) < 1e-3


def test_count_compare_derivative_orders():
    zeta = builtin("zeta")
    assert abs(count_compare(zeta, 1, 50.0).residual - 2.5) < 1e-3
    assert abs(count_compare(zeta, 2, 50.0).residual - 1.0) < 1e-3


def test_count_compare_chi4():
    rep = count_compare(builtin("chi4"), 0, 50.0)
    assert abs(rep.residual) < 1e-3


def test_count_validation():
    with pytest.raises(RangeError, match="^count comparison supports 20 <= T <= 500$"):
        count_compare(builtin("zeta"), 0, 10.0)


def test_tracking_line_guard_passes_at_the_fixed_abscissa():
    # the guard holds on sigma = 6 + 2k (nudged off psi's poles) for every
    # datum and order up to the top of the scan range, and bites at sigma = 2
    data = [builtin(n) for n in ("zeta", "chi3", "chi4", "chi5")] + [builtin("delta", experimental=True)]
    for datum in data:
        for k in range(zerolab.SCAN_K_MAX + 1):
            sigma = zerolab._tracking_abscissa(datum, k)
            zerolab._guard_tracking_line(datum, k, sigma, zerolab.SCAN_T_MAX)
    with pytest.raises(PrecisionError, match="sigma = 2$"):
        zerolab._guard_tracking_line(data[0], 0, 2.0, zerolab.SCAN_T_MAX)


def test_argument_s_against_classical_identity():
    # N(T) = theta(T)/pi + 1 + S(T) for this datum; with the classical
    # N(50) = 10 and the scipy phase this pins the tracked argument
    zeta = builtin("zeta")
    s_measured = argument_S(zeta, 0, 50.0)
    want = 10.0 - theta_reference(zeta, 50.0) / np.pi - 1.0
    assert abs(s_measured - want) < 1e-6


def test_argument_s_batches_its_walk(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return chain_grid(*args, **kwargs)

    monkeypatch.setattr(zerolab, "chain_grid", counted)
    argument_S(builtin("zeta"), 0, 395.0)
    # the tracking-line guard, the walk's first nodes and its rounds of
    # midpoints; one 1-point call per step took 207
    assert len(calls) <= 4


def test_phase_walk_counts_turns():
    square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    turn, samples = _phase_walk(lambda s: s ** 3, square, TrackingError)
    assert turn == pytest.approx(6.0 * math.pi, abs=1e-12)
    assert len(samples) == 4 and samples[0][0] == (1 + 1j) ** 3


def test_phase_walk_resolves_fast_turns():
    # each of the 32 first steps turns by 2.2 pi, which sampled once per
    # step reads as 0.2 pi: a walk at a single resolution aliases here
    length = 1.7
    w = 2.2 * math.pi * 32 / length

    def phase(s):
        return np.exp(1j * w * s.real)

    coarse = phase(np.linspace(0.3, 0.3 + length, 33))
    assert np.sum(np.angle(coarse[1:] / coarse[:-1])) == pytest.approx(6.4 * math.pi)
    turn, _ = _phase_walk(phase, [0.3, 0.3 + length], TrackingError)
    assert turn == pytest.approx(w * length, rel=1e-12)


def test_phase_walk_refuses_a_zero_on_the_path():
    # the arg turns by pi within 1e-9 of s = 0.01, well inside the 2e-7
    # floor on step widths
    with pytest.raises(TrackingError):
        _phase_walk(lambda s: s - (0.01 + 1e-9j), [-1.0, 1.0], TrackingError)


def test_contour_counts_strip_zeros():
    zeta = builtin("zeta")
    n = contour_count(zeta, "chain", 0, Rectangle(-0.5, 1.5, 10.0, 32.0))
    assert n == 4  # the four classical zeros below 32
    n2 = contour_count(zeta, "coeff", 2, Rectangle(2.0, 8.0, 5.0, 40.0))
    assert n2 == 0
    # the lower edge passes 0.01 above the first zero, which stays outside
    n3 = contour_count(zeta, "chain", 0, Rectangle(-0.5, 1.5, ZETA_ZEROS[0] + 0.01, 32.0))
    assert n3 == 3


def test_contour_matches_line_scan():
    zeta = builtin("zeta")
    for k in (0, 1):
        on_line = len(scan_zeros(zeta, k, 30.0, 60.0).gammas)
        boxed = contour_count(zeta, "chain", k, Rectangle(-2.0, 3.0, 30.0, 60.0))
        assert boxed == on_line, k


def test_contour_refuses_zero_on_edge():
    zeta = builtin("zeta")
    with pytest.raises(InconclusiveContourError):
        contour_count(zeta, "chain", 0,
                      Rectangle(-0.5, 1.5, ZETA_ZEROS[0], 32.0))


def test_contour_validation():
    zeta = builtin("zeta")
    with pytest.raises(RangeError, match="^degenerate rectangle$"):
        contour_count(zeta, "chain", 0, Rectangle(1.5, -0.5, 10.0, 32.0))
    # NaN fails no range comparison, so each corner is refused by name
    for i, name in enumerate(("sigma_min", "sigma_max", "t_min", "t_max")):
        for bad in (math.nan, math.inf):
            corners = [-0.5, 1.5, 10.0, 32.0]
            corners[i] = bad
            with pytest.raises(RangeError, match=f"^{name} must be finite, got {bad}$"):
                contour_count(zeta, "chain", 0, Rectangle(*corners))


def test_mirror_sum_zeta():
    rep = mirror_sum_check(builtin("zeta"), 0, 100.0, 40.0)
    assert rep.agree is True
    assert rep.lhs < 0.0
    assert rep.c_fit < 10.0
    assert abs(rep.lhs + rep.truncated_sum) <= rep.tail_bound + rep.c_fit / 100.0 + 1e-12


def test_mirror_proximity_guard():
    with pytest.raises(ProximityError):
        mirror_sum_check(builtin("zeta"), 0, ZETA_ZEROS[0], 6.0)


def test_mirror_validation():
    with pytest.raises(RangeError):
        mirror_sum_check(builtin("zeta"), 0, 100.0, 2.0)
    with pytest.raises(RangeError, match=r"scannable range \[5, 500\]$"):
        mirror_sum_check(builtin("zeta"), 0, 100.0, 200.0)
    for budget in (math.nan, math.inf):
        with pytest.raises(RangeError):
            mirror_sum_check(builtin("zeta"), 0, 100.0, 10.0, c_budget=budget)
    # NaN fails no range comparison, so it must be refused by name
    with pytest.raises(RangeError, match="^t must be finite"):
        mirror_sum_check(builtin("zeta"), 0, math.nan, 10.0)
    with pytest.raises(RangeError, match="^window must be finite"):
        mirror_sum_check(builtin("zeta"), 0, 100.0, math.nan)


def test_scan_cache_returns_consistent_tables():
    zeta = builtin("zeta")
    a = scan_zeros(zeta, 0, 10.0, 22.0)
    b = scan_zeros(zeta, 0, 10.0, 22.0)
    assert a.gammas == b.gammas and a.residuals == b.residuals


def test_scan_cache_keeps_data_apart():
    # a datum renamed to another's name, or one that differs only in its
    # coefficient provider, gets its own table; a hand-built copy of chi4
    # with a fresh provider of chi4's table is chi4 and shares its table
    zeta, chi3, chi4 = builtin("zeta"), builtin("chi3"), builtin("chi4")
    renamed = replace(chi4, name="zeta")
    rewired = replace(chi4, provider=chi3.provider)
    scan_zeros(zeta, 0, 10.0, 22.0)
    scan_zeros(chi4, 0, 10.0, 22.0)
    cached = [scan_zeros(d, 0, 10.0, 22.0) for d in (renamed, rewired)]
    zerolab._scan.cache_clear()
    assert cached == [scan_zeros(d, 0, 10.0, 22.0) for d in (renamed, rewired)]
    assert len(cached[0].gammas) == 5
    copy = replace(chi4, provider=PeriodicProvider(chi4.provider.table))
    assert copy == chi4
    table = scan_zeros(chi4, 0, 10.0, 22.0)
    assert scan_zeros(copy, 0, 10.0, 22.0) is table
