"""Analytic continuation of the Dirichlet series: values, derivative grids,
reflection for the cusp-form datum, guard rails."""

import math
from dataclasses import fields

import numpy as np
import pytest

from hardyz.catalog import builtin, coefficients
from hardyz.context import DEFAULT_CONTEXT
from hardyz.errors import ContextError, DomainError, GeometryError, PoleError
from hardyz.evaluator import l_derivs_grid, l_value, l_value_grid
from hardyz.gamma_factor import fe_factor

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


def test_derivative_circle_pole_guard():
    # differentiation circle may not enclose or graze the s=1 pole
    with pytest.raises(GeometryError):
        l_derivs_grid(builtin("zeta"), np.array([complex(1.1, 0.0)]), 1)


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
    assert len(floats) == 6
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


def test_est_error_honest_against_refinement():
    delta = builtin("delta", experimental=True)
    fine = DEFAULT_CONTEXT.with_overrides(em_cutoff=120)
    for s in (complex(2.2, 14.0), complex(1.4, 3.0)):
        base = l_value(delta, s)
        ref = l_value(delta, s, ctx=fine)
        assert abs(base.value - ref.value) <= base.est_error + ref.est_error


def test_grid_matches_scalar():
    # each point sizes its own series, so a point gives the same bits alone,
    # in a mixed batch and through the derivative circle
    ss = np.array([complex(0.5, 12.0), complex(1.7, 44.0), complex(-1.5, 420.0)])
    for name in ("zeta", "chi4", "chi5"):
        datum = builtin(name)
        grid, grid_est = l_value_grid(datum, ss)
        derivs, _ = l_derivs_grid(datum, ss, 2)
        for i, s in enumerate(ss):
            one = l_value(datum, s)
            assert (one.value, one.est_error) == (complex(grid[i]), float(grid_est[i]))
            assert np.array_equal(l_derivs_grid(datum, ss[i:i + 1], 2)[0][:, 0], derivs[:, i])
