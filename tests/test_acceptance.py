"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one summary line (visible with `pytest -s`) and carries a
wall-clock budget.  Random draws use a fixed seed so every run measures the
same configuration.
"""

import math
import time

import numpy as np
import pytest

from hardyz import gamma_factor
from hardyz.catalog import builtin
from hardyz.chain import chain_coeff, chain_grid, chain_value, z_derivative, z_grid
from hardyz.gamma_factor import fe_factor, fe_logderiv, fe_logderiv_grid
from hardyz.zerolab import (Rectangle, contour_count, count_compare,
                            interlace_audit, mirror_sum_check, scan_zeros)

from oracles import recursion_coeffs, sign_change_roots


def test_c01_functional_equation_suite():
    # |H(s) F_k(1-s) - (-1)^k F_k(s)| / (1 + |F_k(s)|) < 1e-8
    # at 50 seeded strip points, for the first two catalog entries, k <= 4
    start = time.monotonic()
    rng = np.random.default_rng(0)
    ss = rng.uniform(0.15, 0.85, 50) + 1j * rng.uniform(5.0, 45.0, 50)
    worst = 0.0
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        _, big_f, _ = chain_grid(datum, ss, 4)
        _, big_f_m, _ = chain_grid(datum, 1.0 - ss, 4)
        h = np.array([fe_factor(datum, complex(s)) for s in ss])
        for k in range(5):
            resid = np.abs(h * big_f_m[k] - (-1.0) ** k * big_f[k]) \
                / (1.0 + np.abs(big_f[k]))
            worst = max(worst, float(np.max(resid)))
    elapsed = time.monotonic() - start
    assert worst < 1e-8
    assert elapsed < 60.0
    print(f"criterion 01 functional-equation: PASS "
          f"(max residual {worst:.2e}, {elapsed:.1f}s)")


def test_c02_z_realness_and_chain_consistency():
    # rotated chain values are real to 1e-7 relative at 200 seeded heights,
    # and a Richardson difference of Z^(k) reproduces Z^(k+1) to 1e-6
    start = time.monotonic()
    rng = np.random.default_rng(0)
    ts = rng.uniform(5.0, 500.0, 200)
    worst_rel = 0.0
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        for k in range(5):
            vals, resid = z_grid(datum, ts, k)
            rel = resid / np.hypot(vals, resid)
            worst_rel = max(worst_rel, float(np.max(rel)))
    assert worst_rel < 1e-7

    zeta = builtin("zeta")
    worst_fd = 0.0
    n_checked = 0
    for k in range(4):  # 5 points per order -> 20 points
        vals, _ = z_grid(zeta, ts[:40], k + 1)
        order = np.argsort(-np.abs(vals))  # stay away from zeros of Z^(k+1)
        for idx in order[:5]:
            t0 = float(ts[idx])
            table = []
            for lev in range(4):
                h = 1e-2 / 2.0 ** lev
                table.append((z_derivative(zeta, t0 + h, k).value
                              - z_derivative(zeta, t0 - h, k).value) / (2.0 * h))
            rows = [table]
            for lev in range(1, 4):
                prev = rows[-1]
                fac = 4.0 ** lev
                rows.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                             for i in range(len(prev) - 1)])
            fd = rows[-1][0]
            ref = float(vals[idx])
            worst_fd = max(worst_fd, abs(fd - ref) / abs(ref))
            n_checked += 1
    elapsed = time.monotonic() - start
    assert n_checked == 20
    assert worst_fd < 1e-6
    assert elapsed < 120.0
    print(f"criterion 02 Z-realness/chain: PASS (max rel imag {worst_rel:.2e}, "
          f"max FD mismatch {worst_fd:.2e}, {elapsed:.1f}s)")


def test_c03_partition_vs_recursion_coefficients():
    # the partition formula, computed by the Bell recurrence, and the
    # Taylor-jet recursion agree to 1e-8 relative for k <= 5 at 10 seeded
    # points
    start = time.monotonic()
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.2, 3.0, 10) + 1j * rng.uniform(5.0, 40.0, 10)
    worst = 0.0
    for i, s in enumerate(pts):
        datum = builtin("zeta" if i % 2 == 0 else "chi4")
        psi_derivs = [complex(v)
                      for v in fe_logderiv_grid(datum, np.array([s]), 5)[:, 0]]
        via_recursion = recursion_coeffs(psi_derivs, 5)
        for k in range(6):
            via_bell = chain_coeff(datum, complex(s), k)
            rel = abs(via_bell - via_recursion[k]) / (1.0 + abs(via_bell))
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    assert worst < 1e-8
    assert elapsed < 30.0
    print(f"criterion 03 Bell/recursion: PASS "
          f"(max mismatch {worst:.2e}, {elapsed:.1f}s)")


def test_c04_first_zeros_against_fine_grid_oracle():
    # scanner results vs an independent fine-grid locator and the pinned
    # first-zero positions: 14.134725 +- 1e-6 and 6.0209 +- 1e-3
    start = time.monotonic()
    zeta = builtin("zeta")
    chi4 = builtin("chi4")

    got_z = scan_zeros(zeta, 0, 10.0, 15.0).gammas[0]
    oracle_z = sign_change_roots(lambda a: z_grid(zeta, a, 0)[0],
                                 13.8, 14.4, 601)[0]
    assert abs(got_z - 14.134725) < 1e-6
    assert abs(got_z - oracle_z) < 1e-8

    got_c = scan_zeros(chi4, 0, 5.0, 8.0).gammas[0]
    oracle_c = sign_change_roots(lambda a: z_grid(chi4, a, 0)[0],
                                 5.7, 6.3, 601)[0]
    assert abs(got_c - 6.0209) < 1e-3
    assert abs(got_c - oracle_c) < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 04 first zeros: PASS (gamma1 {got_z:.9f}, "
          f"chi4 {got_c:.9f}, {elapsed:.1f}s)")


def test_c05_counting_residuals():
    # n_line(100) = 29 exactly; |N - theta/pi - S| bounded by 1.5 (k=0)
    # and 3 (k=1,2) at T in {50, 100, 200}
    start = time.monotonic()
    zeta = builtin("zeta")
    rep100 = count_compare(zeta, 0, 100.0)
    assert rep100.n_line == 29
    residuals = {}
    for k, bound in ((0, 1.5), (1, 3.0), (2, 3.0)):
        for T in (50.0, 100.0, 200.0):
            rep = count_compare(zeta, k, T)
            residuals[(k, T)] = rep.residual
            assert abs(rep.residual) <= bound, (k, T, rep.residual)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    spread = {k: max(abs(residuals[(k, T)] - residuals[(k, 50.0)])
                     for T in (100.0, 200.0)) for k in (0, 1, 2)}
    print(f"criterion 05 counting: PASS (n_line(100)=29, residuals "
          f"{ {k: round(residuals[(k, 50.0)], 4) for k in (0, 1, 2)} }, "
          f"T-spread {spread}, {elapsed:.1f}s)")


def test_c06_interlacing():
    # zero interlacing violations = 0 on [30, 300] for k = 0..3, and the
    # Rolle floor (at least one inner zero per gap) holds in every gap
    start = time.monotonic()
    total_gaps = 0
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        for k in range(4):
            rep = interlace_audit(datum, k, 30.0, 300.0)
            assert rep.violations == 0, (name, k)
            assert all(g.count >= 1 for g in rep.gaps), (name, k)
            total_gaps += len(rep.gaps)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 06 interlacing: PASS ({total_gaps} gaps clean, "
          f"{elapsed:.1f}s)")


def test_c07_online_completeness_windows():
    # rectangle counts over sigma in [-2, 3] equal on-line counts in three
    # disjoint width-30 windows, k = 0, 1, 2
    start = time.monotonic()
    zeta = builtin("zeta")
    windows = ((30.0, 60.0), (100.0, 130.0), (160.0, 190.0))
    checked = []
    for k in range(3):
        for t0, t1 in windows:
            boxed = contour_count(zeta, "chain", k, Rectangle(-2.0, 3.0, t0, t1))
            on_line = len(scan_zeros(zeta, k, t0, t1).gammas)
            assert boxed == on_line, (k, t0, t1, boxed, on_line)
            checked.append(boxed)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 07 on-line completeness: PASS (window counts {checked}, "
          f"{elapsed:.1f}s)")


def test_c08_mirror_sum():
    # d/dt (Z^(k+1)/Z^(k)) at t in {100, 200}: negative, and equal to minus
    # the mirrored zero sum within tail_bound + C/t with fitted C < 10
    start = time.monotonic()
    zeta = builtin("zeta")
    fitted = []
    for k in (0, 1):
        for t in (100.0, 200.0):
            rep = mirror_sum_check(zeta, k, t, 50.0)
            assert rep.lhs < 0.0, (k, t)
            assert rep.c_fit < 10.0, (k, t, rep.c_fit)
            assert abs(rep.lhs + rep.truncated_sum) \
                <= rep.tail_bound + rep.c_fit / t + 1e-12, (k, t)
            assert rep.agree is True
            fitted.append(round(rep.c_fit, 4))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 08 mirror sum: PASS (fitted C {fitted}, {elapsed:.1f}s)")


def test_c09_asymptotic_envelopes():
    # Re psi(sigma) <= -(1/4) log sigma at sigma in {50, 100, 200}, and the
    # weighted deviations |A_k-1| log^2 sigma, |g_k-1| log sigma do not grow
    # over sigma in {30, 100, 300}.  The g deviation decays like 2^-sigma
    # here, far below float resolution, so a 1e-10 floor absorbs roundoff.
    start = time.monotonic()
    zeta = builtin("zeta")
    for sigma in (50.0, 100.0, 200.0):
        psi = fe_logderiv(zeta, complex(sigma, 0.0)).real
        assert psi <= -0.25 * math.log(sigma), sigma
    floor = 1e-10
    sigmas = (30.0, 100.0, 300.0)
    worst_a = 0.0
    for k in (1, 2, 3):
        ea, eg = [], []
        for sigma in sigmas:
            cv = chain_value(zeta, complex(sigma, 0.0), k)
            ea.append(abs(cv.lead_ratio - 1.0) * math.log(sigma) ** 2)
            eg.append(abs(cv.tail_ratio - 1.0) * math.log(sigma))
        assert ea[0] + floor >= ea[1] and ea[1] + floor >= ea[2], (k, ea)
        assert eg[0] + floor >= eg[1] and eg[1] + floor >= eg[2], (k, eg)
        worst_a = max(worst_a, ea[0])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 09 envelopes: PASS (largest A-envelope {worst_a:.2f}, "
          f"{elapsed:.1f}s)")


def test_c10_psi_residues(monkeypatch):
    # contour integrals of psi around s = 0 and s = 1 give the residues
    # +1 and -1 within 1e-6; the ring of radius 0.05 lies inside the default
    # exclusion radius, so the radius is narrowed for this test
    start = time.monotonic()
    zeta = builtin("zeta")
    monkeypatch.setattr(gamma_factor, "_EXCLUSION_RADIUS", 0.02)
    results = []
    for center, want in ((0.0, 1.0), (1.0, -1.0)):
        phi = 2.0 * np.pi * np.arange(256) / 256.0
        ring = center + 0.05 * np.exp(1j * phi)
        vals = np.array([fe_logderiv(zeta, complex(z)) for z in ring])
        residue = complex(np.mean(vals * (ring - center)))
        assert abs(residue - want) < 1e-6, center
        results.append(residue.real)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 10 residues: PASS (measured {results[0]:+.9f} at 0, "
          f"{results[1]:+.9f} at 1, {elapsed:.1f}s)")
