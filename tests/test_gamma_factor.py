"""Phase function theta_F, functional-equation factor H, and its
logarithmic derivative psi_F."""

import math

import numpy as np
import pytest

from hardyz.catalog import builtin
from hardyz.context import DEFAULT_CONTEXT
from hardyz.errors import DomainError, ExcludedRegionError, PoleError, RangeError
from hardyz.gamma_factor import (fe_factor, fe_logderiv, fe_logderiv_grid,
                                 psi_pole_distance, theta, theta_asymptotic,
                                 theta_grid)

from oracles import THETA_AT_100, fd_derivative, theta_reference

ALL_NAMES = ["zeta", "chi3", "chi4", "chi5"]


def _data():
    return [builtin(n) for n in ALL_NAMES] + [builtin("delta", experimental=True)]


def test_theta_matches_scipy_route():
    for datum in _data():
        for t in (5.0, 17.3, 60.0, 250.0):
            got = theta(datum, t).theta
            ref = theta_reference(datum, t)
            assert abs(got - ref) < 1e-10 * (1.0 + abs(ref)), datum.name


def test_theta_zeta_frozen_point():
    got = theta(builtin("zeta"), 100.0).theta
    assert abs(got - THETA_AT_100) < 1e-12


def test_theta_is_odd():
    for datum in _data():
        th, _ = theta_grid(datum, np.array([-42.5, 42.5]))
        assert th[0] == -th[1]


def test_theta_prime_equals_half_psi():
    # theta'(t) = -Re psi_F(1/2+it) / 2, two separate code paths
    for datum in _data():
        for t in (8.0, 33.0, 140.0):
            p = theta(datum, t)
            psi = fe_logderiv(datum, complex(0.5, t))
            assert abs(p.theta_prime - (-0.5) * psi.real) < 1e-11 * (1.0 + abs(psi))
            assert abs(psi.imag) < 1e-10 * (1.0 + abs(psi))


def test_theta_prime_vs_finite_difference():
    for datum in (builtin("zeta"), builtin("chi4")):
        for t in (12.0, 77.0):
            fd = fd_derivative(lambda x: theta(datum, x).theta, t, h=1e-2)
            got = theta(datum, t).theta_prime
            assert abs(fd - got) < 1e-8 * (1.0 + abs(got))


def test_theta_asymptotic_envelope():
    # |theta/pi - asymptotic| decays like 1/t; for zeta the next term is
    # 1/(48 pi t), so 0.02/t is a comfortable envelope
    zeta = builtin("zeta")
    for t in (20.0, 50.0, 100.0, 400.0):
        exact = theta(zeta, t).theta / math.pi
        assert abs(exact - theta_asymptotic(zeta, t)) < 0.02 / t
    for datum in _data()[1:]:
        err20 = abs(theta(datum, 20.0).theta / math.pi - theta_asymptotic(datum, 20.0))
        err200 = abs(theta(datum, 200.0).theta / math.pi - theta_asymptotic(datum, 200.0))
        # 1/t decay; the constant grows with mu^2 so only the rate is pinned
        assert err200 < 0.2 * err20, datum.name


def test_theta_asymptotic_range_guard():
    with pytest.raises(RangeError):
        theta_asymptotic(builtin("zeta"), 5.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            theta_asymptotic(builtin("zeta"), bad)


def test_fe_factor_unimodular_on_line():
    for datum in _data():
        for t in (6.0, 29.0, 111.0):
            h = fe_factor(datum, complex(0.5, t))
            assert abs(abs(h) - 1.0) < 1e-12


def test_fe_factor_inversion_identity():
    # H(s) H(1-s) = 1 wherever both sides exist
    for datum in _data():
        for s in (complex(0.3, 9.0), complex(-1.2, 25.0), complex(2.0, 4.0)):
            prod = fe_factor(datum, s) * fe_factor(datum, 1.0 - s)
            assert abs(prod - 1.0) < 1e-11


def test_fe_factor_poles_and_zeros():
    zeta = builtin("zeta")
    # numerator gamma pole at s = 1, 3, 5, ...
    with pytest.raises(PoleError):
        fe_factor(zeta, complex(3.0, 0.0))
    # denominator gamma pole makes H vanish at s = 0, -2, ...
    assert fe_factor(zeta, complex(0.0, 0.0)) == 0.0


def test_fe_logderiv_vs_fd_of_h():
    # psi_F = H'/H checked against a finite difference of H itself
    for datum in (builtin("zeta"), builtin("chi4")):
        s0 = complex(0.4, 11.0)
        h0 = fe_factor(datum, s0)
        fd_re = fd_derivative(lambda x: fe_factor(datum, complex(x, s0.imag)).real,
                              s0.real, h=1e-3)
        fd_im = fd_derivative(lambda x: fe_factor(datum, complex(x, s0.imag)).imag,
                              s0.real, h=1e-3)
        got = fe_logderiv(datum, s0)
        assert abs(complex(fd_re, fd_im) / h0 - got) < 1e-7 * (1.0 + abs(got))


def test_fe_logderiv_higher_orders_vs_fd():
    datum = builtin("zeta")
    s0 = complex(1.8, 7.0)
    for order in (1, 2, 3):
        fd_re = fd_derivative(
            lambda x: fe_logderiv(datum, complex(x, s0.imag), order - 1).real,
            s0.real, h=5e-3)
        fd_im = fd_derivative(
            lambda x: fe_logderiv(datum, complex(x, s0.imag), order - 1).imag,
            s0.real, h=5e-3)
        got = fe_logderiv(datum, s0, order)
        assert abs(complex(fd_re, fd_im) - got) < 1e-6 * (1.0 + abs(got))


def test_fe_logderiv_grid_matches_scalar():
    datum = builtin("chi4")
    ss = np.array([complex(0.5, 6.0), complex(1.5, 30.0)])
    rows = fe_logderiv_grid(datum, ss, 3)
    assert rows.shape == (4, 2)
    for j in range(4):
        for i, s in enumerate(ss):
            assert complex(rows[j, i]) == fe_logderiv(datum, complex(s), j)


def test_psi_half_closed_form():
    # for the degree-one datum with lambda=1/2, mu=0:
    # psi_F(1/2) = log pi - psi(1/4) = log pi + euler_gamma + 3 log 2 + pi/2
    want = math.log(math.pi) + np.euler_gamma + 3.0 * math.log(2.0) + math.pi / 2.0
    got = fe_logderiv(builtin("zeta"), complex(0.5, 0.0))
    assert abs(got.real - want) < 1e-13
    assert got.imag == 0.0


def test_psi_pole_distance_values():
    zeta = builtin("zeta")
    d = psi_pole_distance(zeta, np.array([complex(0.1, 0.0), complex(0.5, 2.0)]))
    assert abs(d[0] - 0.1) < 1e-14
    assert abs(d[1] - math.hypot(0.5, 2.0)) < 1e-14
    # chi4 has a pole exactly at s = 6 (right family 2, 4, 6, ...)
    d4 = psi_pole_distance(builtin("chi4"), np.array([complex(6.0, 0.0)]))
    assert d4[0] == 0.0


def test_exclusion_circle_refusal():
    with pytest.raises(ExcludedRegionError):
        fe_logderiv(builtin("zeta"), complex(1.0 + 0.05, 0.0))
    # the radius is policy, not hardwired
    loose = DEFAULT_CONTEXT.with_overrides(exclusion_radius=0.02)
    val = fe_logderiv(builtin("zeta"), complex(1.05, 0.0), ctx=loose)
    assert np.isfinite(val.real)


def test_non_finite_points_are_refused():
    # refused at entry, before polygamma or log_gamma warns on NaN
    zeta = builtin("zeta")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            theta(zeta, bad)
        with pytest.raises(DomainError):
            theta_grid(zeta, np.array([20.0, bad]))
        for s in (complex(bad, 20.0), complex(0.5, bad)):
            with pytest.raises(DomainError):
                fe_logderiv(zeta, s)
            with pytest.raises(DomainError):
                fe_logderiv_grid(zeta, np.array([complex(0.5, 20.0), s]), 2)


def test_psi_residues_at_gateway_poles():
    # psi_F has residue +1 at s=0 and -1 at s=1 (simple poles from the
    # gamma factors); trapezoid circle of radius 0.05, 256 nodes
    ctx = DEFAULT_CONTEXT.with_overrides(exclusion_radius=0.02)
    zeta = builtin("zeta")
    for center, want in ((0.0, 1.0), (1.0, -1.0)):
        phi = 2.0 * np.pi * np.arange(256) / 256.0
        ring = center + 0.05 * np.exp(1j * phi)
        vals = np.array([fe_logderiv(zeta, complex(z), ctx=ctx) for z in ring])
        residue = np.mean(vals * (ring - center))
        assert abs(residue - want) < 1e-10
