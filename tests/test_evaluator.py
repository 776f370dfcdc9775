"""Analytic continuation of the Dirichlet series: values, derivative grids,
reflection for the cusp-form datum, guard rails."""

import math
from dataclasses import fields

import numpy as np
import pytest

from hardyz import catalog
from hardyz.catalog import PeriodicProvider, SelbergDatum, builtin, coefficients
from hardyz.context import DEFAULT_CONTEXT
from hardyz.errors import ContextError, DomainError, GeometryError, PoleError
from hardyz.evaluator import l_derivs_grid, l_value, l_value_grid
from hardyz.gamma_factor import fe_factor
from hardyz.specfun import _TABLE_ELEMS, _power_plan, power_tables, series_terms

from oracles import CATALAN, ZETA_ZEROS, divisor_counts, fd_derivative, zeta_alternating


def test_zeta_closed_values():
    zeta = builtin("zeta")
    assert abs(l_value(zeta, complex(2.0, 0.0)).value - math.pi ** 2 / 6.0) < 1e-14
    assert abs(l_value(zeta, complex(-1.0, 0.0)).value - (-1.0 / 12.0)) < 1e-15


def test_zeta_matches_alternating_series():
    # independent evaluation route (accelerated alternating sum)
    zeta = builtin("zeta")
    for s in (complex(0.5, 14.0), complex(0.5, 40.0), complex(0.1, 25.0),
              complex(1.5, 3.0), complex(2.0, 60.0)):
        got = l_value(zeta, s)
        ref = zeta_alternating(s)
        assert abs(got.value - ref) < 5e-12 * (1.0 + abs(ref)) + got.est_error


def test_zeta_vanishes_at_first_zeros():
    zeta = builtin("zeta")
    for gamma in ZETA_ZEROS[:3]:
        v = l_value(zeta, complex(0.5, gamma)).value
        assert abs(v) < 1e-11


def test_character_l_closed_values():
    # classical special values at s = 1 and s = 2
    assert abs(l_value(builtin("chi4"), complex(1.0, 0.0)).value
               - math.pi / 4.0) < 1e-14
    assert abs(l_value(builtin("chi3"), complex(1.0, 0.0)).value
               - math.pi / (3.0 * math.sqrt(3.0))) < 1e-14
    golden = 0.5 * (1.0 + math.sqrt(5.0))
    assert abs(l_value(builtin("chi5"), complex(1.0, 0.0)).value
               - 2.0 * math.log(golden) / math.sqrt(5.0)) < 1e-14
    assert abs(l_value(builtin("chi4"), complex(2.0, 0.0)).value - CATALAN) < 1e-14


def test_functional_equation_residuals():
    names = ["zeta", "chi3", "chi4", "chi5"]
    data = [builtin(n) for n in names] + [builtin("delta", experimental=True)]
    for datum in data:
        for s in (complex(0.3, 8.0), complex(0.7, 21.0), complex(-0.5, 12.0)):
            lhs = l_value(datum, s).value
            rhs = fe_factor(datum, s) * l_value(datum, 1.0 - s).value
            assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs)), datum.name


def test_derivative_grid_vs_fd():
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        s0 = complex(1.6, 9.0)
        vals, _ = l_derivs_grid(datum, np.array([s0]), 3)
        for j in (1, 2, 3):
            fd_re = fd_derivative(
                lambda x, _j=j - 1: complex(
                    l_derivs_grid(datum, np.array([complex(x, s0.imag)]), _j)[0][_j, 0]).real,
                s0.real, h=5e-3)
            fd_im = fd_derivative(
                lambda x, _j=j - 1: complex(
                    l_derivs_grid(datum, np.array([complex(x, s0.imag)]), _j)[0][_j, 0]).imag,
                s0.real, h=5e-3)
            got = complex(vals[j, 0])
            assert abs(complex(fd_re, fd_im) - got) < 1e-6 * (1.0 + abs(got))


def test_derivative_grid_shape_and_order_zero():
    datum = builtin("zeta")
    ss = np.array([complex(2.0, 5.0), complex(0.5, 30.0)])
    vals, ests = l_derivs_grid(datum, ss, 2)
    assert vals.shape == (3, 2) and ests.shape == (3, 2)
    plain, _ = l_value_grid(datum, ss)
    assert np.max(np.abs(vals[0] - plain)) < 1e-11 * float(np.max(1.0 + np.abs(plain)))
    # any input shape gives (j_max+1,) + that shape, with the bits of the
    # 1-D call on the same points
    grid = np.array([[2.0 + 5.0j, 0.5 + 30.0j, -1.0 + 7.0j],
                     [1.5 - 40.0j, 0.2 + 100.0j, 3.0 + 0.5j]])
    for j_max in (0, 2):
        for shaped in (grid, grid[0, 0]):
            flat = l_derivs_grid(datum, np.ravel(shaped), j_max)
            for got, ref in zip(l_derivs_grid(datum, shaped, j_max), flat):
                assert got.shape == (j_max + 1,) + np.shape(shaped)
                assert np.array_equal(got.reshape(j_max + 1, -1), ref)


def test_derivative_circle_pole_guard():
    # differentiation circle may not enclose or graze the s=1 pole
    with pytest.raises(GeometryError):
        l_derivs_grid(builtin("zeta"), np.array([complex(1.1, 0.0)]), 1)


def test_provider_without_values_is_refused():
    class BlockOnly:
        def block(self, n_max):
            return np.ones(n_max)

    zeta = builtin("zeta")
    bare = SelbergDatum("bare", zeta.q_factor, zeta.lambdas, zeta.mus, zeta.omega, 1, BlockOnly())
    with pytest.raises(DomainError, match="no evaluation backend for provider BlockOnly"):
        l_value_grid(bare, [2.0 + 1.0j])


def test_box_guards():
    zeta = builtin("zeta")
    with pytest.raises(DomainError):
        l_value(zeta, complex(400.0, 0.0))
    with pytest.raises(DomainError):
        l_value(zeta, complex(2.0, 700.0))
    with pytest.raises(PoleError):
        l_value(zeta, complex(1.0, 0.0))
    for s in (complex(math.nan, 20.0), complex(0.5, math.nan), complex(0.5, math.inf)):
        with pytest.raises(DomainError):
            l_value(zeta, s)
    # characters are entire: s = 1 is a regular point
    assert np.isfinite(l_value(builtin("chi4"), complex(1.0, 0.0)).value.real)


def test_context_rejects_non_finite_fields():
    floats = [f.name for f in fields(DEFAULT_CONTEXT)
              if isinstance(getattr(DEFAULT_CONTEXT, f.name), float)]
    assert len(floats) == 2
    for name in floats:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ContextError):
                DEFAULT_CONTEXT.with_overrides(**{name: bad})


def test_cusp_series_against_truncated_sum():
    delta = builtin("delta", experimental=True)
    s = complex(3.0, 0.0)
    got = l_value(delta, s)
    n_max = 6000
    a = coefficients(delta, n_max)
    n = np.arange(1, n_max + 1)
    partial = complex(np.sum(a * n ** (-s)))
    # normalized coefficients obey |a(n)| <= d(n); crude d(n) <= 2 sqrt(n)
    tail = 2.0 * (2.0 / (2.0 * s.real - 3.0)) * n_max ** (1.5 - s.real)
    assert abs(got.value - partial) <= got.est_error + tail


def test_cusp_deligne_bound_on_coefficients():
    delta = builtin("delta", experimental=True)
    n_max = 3000
    a = np.abs(coefficients(delta, n_max))
    d = divisor_counts(n_max)
    assert np.all(a <= d + 1e-9)


def test_cusp_reflection_route_wiring():
    # left of Re s = 1/2 the value is defined through the functional
    # equation; pin the wiring and the fact that near the critical line the
    # conditionally convergent series reports an honest (large) error bar
    delta = builtin("delta", experimental=True)
    s = complex(-0.5, 9.0)
    via_route = l_value(delta, s).value
    by_hand = fe_factor(delta, s) * l_value(delta, 1.0 - s).value
    assert abs(via_route - by_hand) < 1e-13 * (1.0 + abs(by_hand))
    on_line = l_value(delta, complex(0.5, 9.0))
    assert on_line.est_error > 1.0


def test_est_error_honest_against_refinement(monkeypatch):
    # the reference takes six times the cusp-form floor of 320 terms
    delta = builtin("delta", experimental=True)
    ss = (complex(2.2, 14.0), complex(1.4, 3.0))
    base = [l_value(delta, s) for s in ss]
    monkeypatch.setattr(catalog, "_EM_CUTOFF", 120)
    for s, b in zip(ss, base):
        ref = l_value(delta, s)
        assert abs(b.value - ref.value) <= b.est_error + ref.est_error


def test_grid_matches_scalar():
    # each point sizes its own series, so a point gives the same bits alone,
    # in a mixed batch and through the derivative circle, estimates included
    ss = np.array([complex(0.5, 12.0), complex(1.7, 44.0), complex(-1.5, 420.0), 2 + 9j])
    for name in ("zeta", "chi4", "chi5"):
        datum = builtin(name)
        grid, grid_est = l_value_grid(datum, ss)
        derivs, derivs_est = l_derivs_grid(datum, ss, 2)
        for i, s in enumerate(ss):
            one = l_value(datum, s)
            assert (one.value, one.est_error) == (complex(grid[i]), float(grid_est[i]))
            vals, est = l_derivs_grid(datum, ss[i:i + 1], 2)
            assert np.array_equal(vals[:, 0], derivs[:, i])
            assert np.array_equal(est[:, 0], derivs_est[:, i])


def test_padded_batches_bitwise_equal():
    # points placed after others land in other table chunks and, through
    # the derivative circle, in one pass with their nodes; every value and
    # estimate must keep its bits
    rng = np.random.default_rng(23)
    ss, pad = (rng.uniform(-1.5, 2.5, n) + 1j * rng.uniform(5.0, 480.0, n) for n in (300, 20_000))
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        ref = l_value_grid(datum, ss)
        for n_pad in (7, 20_000):
            got = l_value_grid(datum, np.concatenate([pad[:n_pad], ss]))
            assert all(np.array_equal(g[n_pad:], r) for g, r in zip(got, ref))
        ref = l_derivs_grid(datum, ss[:40], 2)
        got = l_derivs_grid(datum, np.concatenate([pad[:300], ss[:40]]), 2)
        assert all(np.array_equal(g[:, 300:], r) for g, r in zip(got, ref))


@pytest.mark.parametrize("name", ["zeta", "chi4", "chi5"])
def test_power_table_chunks_batch_invariant(name):
    # one series length n, one point more than a table chunk holds: the
    # batch, each single point and a mixed full batch give the same bits
    datum = builtin(name)
    q = len(datum.provider.table)
    n = int(series_terms(0.3 + 490.0j))
    step = _TABLE_ELEMS // _power_plan(n, q, True).m.size
    line = 0.3 + 1j * np.linspace(300.0, 600.0, 6001)
    tier = line[series_terms(line) == n][:step + 1]
    assert tier.size == step + 1
    rng = np.random.default_rng(21)
    others = rng.uniform(-1.0, 2.0, 40) + 1j * rng.uniform(-600.0, 600.0, 40)
    full = np.concatenate([others, tier])
    perm = rng.permutation(full.size)
    vals, ests = l_value_grid(datum, full[perm])
    inv = np.argsort(perm)
    tv, te = l_value_grid(datum, tier)
    assert np.array_equal(tv, vals[inv][40:]) and np.array_equal(te, ests[inv][40:])
    for i in (0, step - 1, step):
        one = l_value(datum, tier[i])
        assert (one.value, one.est_error) == (complex(tv[i]), float(te[i]))


@pytest.mark.parametrize("name", ["zeta", "chi4"])
def test_modulus_masses_from_sigma(name, monkeypatch):
    # a term's modulus |m^(-s)| is m^(-sigma), so the masses come from one
    # real row per distinct sigma: a point's estimate has the same bits
    # alone, among points on the line, among points of distinct sigma and
    # through the derivative circle, and stays within 4 ulps of the sum of
    # the moduli of the complex terms (the reference below); values keep
    # their bits
    datum = builtin(name)
    rng = np.random.default_rng(31)
    s0 = complex(0.5, 231.7)
    line = 0.5 + 1j * rng.uniform(5.0, 500.0, 300)
    spread = rng.uniform(-1.5, 2.5, 300) + 1j * rng.uniform(5.0, 500.0, 300)
    batches = [np.concatenate([pts, [s0]]) for pts in (line, spread)]
    got = [l_value_grid(datum, b) for b in batches]
    circle = l_derivs_grid(datum, np.array([s0]), 2)[1][0, 0]
    assert l_value(datum, s0).est_error == got[0][1][-1] == got[1][1][-1] == circle

    def abs_sums(self, flat, lengths, residues):
        q = len(self.table)
        main = np.empty((len(residues), flat.size), dtype=np.complex128)
        main_abs = np.empty(main.shape, dtype=np.float64)
        for idx, plan, tab in power_tables(flat, lengths, q):
            cols = {r: (lo, hi) for r, lo, hi in plan.classes}
            for i, a in enumerate(residues):
                lo, hi = cols[a % q]
                main[i, idx] = tab[:, lo:hi].sum(axis=1)
                main_abs[i, idx] = np.abs(tab[:, lo:hi]).sum(axis=1)
        return main, main_abs

    monkeypatch.setattr(PeriodicProvider, "_class_sums", abs_sums)
    for b, (vals, ests) in zip(batches, got):
        ref_vals, ref_ests = l_value_grid(datum, b)
        assert np.array_equal(vals, ref_vals)
        assert np.all(np.abs(ests - ref_ests) <= 4 * np.finfo(np.float64).eps * ref_ests)


def test_periodic_table_beyond_the_units():
    # a table with nonzero entries at residues not prime to q takes every
    # m <= qN; (1, 1) mod 2 is zeta again, pole and all
    zeta = builtin("zeta")
    twice = SelbergDatum("zeta mod 2", zeta.q_factor, zeta.lambdas, zeta.mus, zeta.omega, 1,
                         PeriodicProvider((1.0, 1.0)))
    rng = np.random.default_rng(22)
    ss = np.concatenate([rng.uniform(-3.0, 3.0, 20) + 1j * rng.uniform(-500.0, 500.0, 20),
                         [2.0, -1.0, 0.5 + 14.134725141734695j]])
    got, got_est = l_value_grid(twice, ss)
    ref, ref_est = l_value_grid(zeta, ss)
    assert np.all(np.abs(got - ref) <= got_est + ref_est)
