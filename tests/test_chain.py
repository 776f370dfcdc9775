"""Derivative chain F_k, coefficient functions f_k, the rotated real
restriction Z^(k), and the entire completion."""

import cmath
import math

import numpy as np
import pytest

from hardyz.catalog import builtin
from hardyz.chain import (center_prefactor, chain_coeff, chain_coeff_tail,
                          chain_derivative, chain_grid, chain_value,
                          coeff_stack_grid, completed_value, z_derivative,
                          z_grid)
from hardyz.errors import (DomainError, ExcludedRegionError, PrecisionError,
                           RangeError, UnsupportedOrderError)
from hardyz.evaluator import l_derivative, l_derivs_grid
from hardyz.gamma_factor import fe_logderiv, fe_logderiv_grid, theta
from hardyz.specfun import hurwitz_zeta, polygamma
from hardyz.zerolab import argument_S, scan_zeros

from oracles import (Z_AT_18, Z_AT_100_5, Z_AT_333_3, ZETA_PRIME_ZEROS,
                     ZETA_SECOND_ZEROS, ZETA_ZEROS, fd_derivative,
                     recursion_coeffs)

POINTS = [complex(2.0, 9.0), complex(0.5, 26.0), complex(4.0, 13.0)]


def _psi(datum, s, order=0):
    return fe_logderiv(datum, s, order)


def test_coeff_closed_forms():
    # hand-expanded partition sums for k = 1, 2, 3:
    #   f_1 = -psi/2
    #   f_2 = psi^2/4 - psi'/2
    #   f_3 = -psi^3/8 + (3/4) psi psi' - psi''/2
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        for s in POINTS:
            p0 = _psi(datum, s, 0)
            p1 = _psi(datum, s, 1)
            p2 = _psi(datum, s, 2)
            want = {
                1: -0.5 * p0,
                2: 0.25 * p0 ** 2 - 0.5 * p1,
                3: -p0 ** 3 / 8.0 + 0.75 * p0 * p1 - 0.5 * p2,
            }
            for k, ref in want.items():
                got = chain_coeff(datum, s, k)
                assert abs(got - ref) < 1e-12 * (1.0 + abs(ref)), (name, k)


def test_coeff_tail_closed_forms():
    # tail = partitions with a_1 <= k-2 (the part of f_k beyond the leading
    # (-psi/2)^k growth): for k=2 only -psi'/2, for k=3 the two mixed terms
    datum = builtin("zeta")
    for s in POINTS:
        p0 = _psi(datum, s, 0)
        p1 = _psi(datum, s, 1)
        p2 = _psi(datum, s, 2)
        t2 = chain_coeff_tail(datum, s, 2)
        t3 = chain_coeff_tail(datum, s, 3)
        assert abs(t2 - (-0.5 * p1)) < 1e-12 * (1.0 + abs(p1))
        ref3 = 0.75 * p0 * p1 - 0.5 * p2
        assert abs(t3 - ref3) < 1e-12 * (1.0 + abs(ref3))


def test_coeff_partition_vs_recursion_routes():
    # Bell-recurrence coefficients against truncated Taylor recursion, up to
    # the chain cap k = 8
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        for s in POINTS[:2]:
            psi_derivs = [
                complex(v) for v in fe_logderiv_grid(datum, np.array([s]), 8)[:, 0]
            ]
            via_recursion = recursion_coeffs(psi_derivs, 8)
            for k in range(9):
                via_bell = chain_coeff(datum, s, k)
                assert abs(via_bell - via_recursion[k]) \
                    < 1e-10 * (1.0 + abs(via_bell)), (name, k)


def test_chain_recursion_vs_finite_difference():
    # F_{k+1} = F_k' - (1/2) psi F_k with F_k' from Richardson differences
    datum = builtin("zeta")
    s0 = complex(2.0, 9.0)
    for k in (0, 1, 2, 3):
        def fk_at(x, _k=k):
            return chain_value(datum, complex(x, s0.imag), _k).value

        fd = complex(fd_derivative(lambda x: fk_at(x).real, s0.real, h=1e-2),
                     fd_derivative(lambda x: fk_at(x).imag, s0.real, h=1e-2))
        got_next = chain_value(datum, s0, k + 1).value
        want = fd - 0.5 * _psi(datum, s0) * chain_value(datum, s0, k).value
        assert abs(got_next - want) < 1e-6 * (1.0 + abs(got_next)), k


def test_chain_derivative_identity():
    # exported F_k' equals the recursion rearranged, and the FD of F_k
    datum = builtin("chi4")
    s0 = complex(1.5, 12.0)
    for k in (0, 1, 2):
        direct = chain_derivative(datum, s0, k)
        via_chain = chain_value(datum, s0, k + 1).value \
            + 0.5 * _psi(datum, s0) * chain_value(datum, s0, k).value
        assert abs(direct - via_chain) < 1e-11 * (1.0 + abs(direct))
        fd = complex(
            fd_derivative(lambda x: chain_value(datum, complex(x, s0.imag), k).value.real,
                          s0.real, h=1e-2),
            fd_derivative(lambda x: chain_value(datum, complex(x, s0.imag), k).value.imag,
                          s0.real, h=1e-2))
        assert abs(direct - fd) < 1e-6 * (1.0 + abs(direct))


def test_chain_grid_matches_scalar():
    datum = builtin("zeta")
    ss = np.array([complex(2.0, 9.0)])
    f, big_f, est = chain_grid(datum, ss, 3)
    assert f.shape == (4, 1) and big_f.shape == (4, 1)
    for k in range(4):
        cv = chain_value(datum, complex(ss[0]), k)
        assert complex(big_f[k, 0]) == cv.value
        assert complex(f[k, 0]) == cv.coeff
    # any input shape gives (k+1,) + that shape, and z_grid arrays in the
    # shape of t, with the bits of the 1-D call on the same points
    grid = np.array([[2.0 + 9.0j, 0.5 + 26.0j, 4.0 + 13.0j],
                     [-1.5 + 40.0j, 0.5 - 60.0j, 1.5 + 300.0j]])
    heights = np.array([[18.0, 100.5, -33.0], [5.0, 250.0, 480.0]])
    for k in (0, 2):
        for shaped, t in ((grid, heights), (grid[0, 0], heights[0, 0])):
            flat = chain_grid(datum, np.ravel(shaped), k)
            for got, ref in zip(chain_grid(datum, shaped, k), flat):
                assert got.shape == (k + 1,) + np.shape(shaped)
                assert np.array_equal(got.reshape(k + 1, -1), ref)
            for got, ref in zip(z_grid(datum, t, k), z_grid(datum, np.ravel(t), k)):
                assert got.shape == np.shape(t)
                assert np.array_equal(got.ravel(), ref)


def test_zero_d_points_have_the_bits_of_a_batch():
    # a 0-d s is raveled before the jets run: on numpy scalars the complex
    # products would round otherwise than in the array loop
    rng = np.random.default_rng(33)
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        ss = rng.uniform(-1.5, 2.5, 60) + 1j * rng.uniform(5.0, 480.0, 60)
        for k in (0, 2, 4):
            for s in ss:
                got = coeff_stack_grid(datum, np.complex128(s), k)
                ref = coeff_stack_grid(datum, np.array([s]), k)
                assert got.shape == (k + 1,) and got.tobytes() == ref.tobytes(), (name, k, s)
                for got, ref in zip(chain_grid(datum, np.complex128(s), k),
                                    chain_grid(datum, np.array([s]), k)):
                    assert got.shape == (k + 1,) and got.tobytes() == ref.tobytes(), (name, k, s)


def test_z_values_multiprecision():
    zeta = builtin("zeta")
    for k, ref in enumerate(Z_AT_18):
        got = z_derivative(zeta, 18.0, k).value
        assert abs(got - ref) < 1e-10 * (1.0 + abs(ref)), k
    assert abs(z_derivative(zeta, 100.5, 0).value - Z_AT_100_5) < 1e-11
    assert abs(z_derivative(zeta, 333.3, 0).value - Z_AT_333_3) < 1e-10


def test_z_vanishes_at_frozen_zeros():
    zeta = builtin("zeta")
    for gamma in ZETA_ZEROS[:3]:
        assert abs(z_derivative(zeta, gamma, 0).value) < 1e-10
    for gamma in ZETA_PRIME_ZEROS[:3]:
        assert abs(z_derivative(zeta, gamma, 1).value) < 1e-10
    for gamma in ZETA_SECOND_ZEROS[:3]:
        assert abs(z_derivative(zeta, gamma, 2).value) < 1e-9


def test_z_signed_evenness():
    # Z is even, so Z^(k)(-t) = (-1)^k Z^(k)(t) exactly by construction
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        for k in range(4):
            plus = z_grid(datum, np.array([37.2]), k)[0][0]
            minus = z_grid(datum, np.array([-37.2]), k)[0][0]
            assert minus == (-1.0) ** k * plus


def test_z_im_residual_small():
    for name in ("zeta", "chi4", "chi3", "chi5"):
        datum = builtin(name)
        ts = np.array([7.0, 55.0, 210.0, 480.0])
        for k in range(5):
            vals, resid = z_grid(datum, ts, k)
            assert np.all(resid <= 1e-8 * (1.0 + np.abs(vals))), (name, k)


def test_z_derivative_vs_fd_of_lower():
    zeta = builtin("zeta")
    for k in (0, 1, 2, 3):
        for t0 in (18.0, 52.5):
            fd = fd_derivative(lambda x: z_derivative(zeta, x, k).value, t0, h=1e-2)
            got = z_derivative(zeta, t0, k + 1).value
            assert abs(fd - got) < 1e-6 * (1.0 + abs(got)), (k, t0)


def test_completed_parity():
    # xi_k(s) = (-1)^k xi_k(1-s)
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        for k in range(4):
            for s in (complex(2.0, 9.0), complex(0.8, 17.0)):
                lhs = completed_value(datum, s, k)
                rhs = (-1.0) ** k * completed_value(datum, 1.0 - s, k)
                assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs)), (name, k)


def test_completed_center_prefactor_identity():
    # xi_k(1/2+it) = (-i)^k g(t) Z^(k)(t) for root number 1
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        t = 20.0
        for k in range(4):
            xi = completed_value(datum, complex(0.5, t), k)
            g = center_prefactor(datum, t, k)
            zk = z_derivative(datum, t, k).value
            want = (-1j) ** k * g * zk
            assert abs(xi - want) < 1e-9 * (1.0 + abs(xi)), (name, k)


def test_completed_zeta_at_two():
    # [s(s-1)] Q^s Gamma(s/2) zeta(s) at s=2 is pi/3 with Q = 1/sqrt(pi)
    got = completed_value(builtin("zeta"), complex(2.0, 0.0), 0)
    assert abs(got - math.pi / 3.0) < 1e-14


def test_completed_overflow_guard():
    with pytest.raises(PrecisionError):
        completed_value(builtin("zeta"), complex(0.5, 400.0), 3)


def test_chain_order_cap():
    zeta = builtin("zeta")
    with pytest.raises(UnsupportedOrderError):
        chain_value(zeta, complex(2.0, 9.0), 9)


# each function refuses an order that is not an int, bool
# included, with the error class it uses for an out-of-range order
@pytest.mark.parametrize("call, error", [
    pytest.param(lambda z: l_derivs_grid(z, [2 + 1j], 1.5), UnsupportedOrderError, id="l_derivs_grid"),
    pytest.param(lambda z: l_derivative(z, 2 + 1j, 1.0), UnsupportedOrderError, id="l_derivative"),
    pytest.param(lambda z: fe_logderiv(z, 2 + 1j, 1.5), UnsupportedOrderError, id="fe_logderiv"),
    pytest.param(lambda z: argument_S(z, 0.5, 30.0), RangeError, id="argument_S"),
    pytest.param(lambda z: scan_zeros(z, True, 10.0, 12.0), RangeError, id="scan_zeros"),
    pytest.param(lambda z: z_grid(z, [20.0], True), UnsupportedOrderError, id="z_grid"),
    pytest.param(lambda z: polygamma(True, 2 + 1j), UnsupportedOrderError, id="polygamma"),
    pytest.param(lambda z: hurwitz_zeta(2 + 1j, deriv=True), UnsupportedOrderError, id="hurwitz_zeta"),
])
def test_non_integer_orders_are_refused_by_name(call, error):
    with pytest.raises(error, match="must be an integer in 0[.][.]"):
        call(builtin("zeta"))


# each would warn or overflow on 0.5 + it or log Gamma at 1/2 + it (pytest
# turns warnings into errors), or return a value outside the box
@pytest.mark.parametrize("call", [
    pytest.param(lambda z: z_derivative(z, math.inf, 0), id="z_derivative_inf"),
    pytest.param(lambda z: theta(z, 1e300), id="theta_1e300"),
    pytest.param(lambda z: center_prefactor(z, 1e300, 0), id="center_prefactor_1e300"),
    pytest.param(lambda z: center_prefactor(z, 1000.0, 0), id="center_prefactor_1000"),
])
def test_line_heights_outside_the_box_are_refused(call):
    with pytest.raises(DomainError, match="^t "):
        call(builtin("zeta"))


def test_lead_and_tail_ratios_near_one_far_right():
    # far to the right f_k ~ (-psi/2)^k and F_k ~ f_k, so both ratios -> 1
    zeta = builtin("zeta")
    cv = chain_value(zeta, complex(30.0, 20.0), 2)
    assert abs(cv.lead_ratio - 1.0) < 0.05
    assert abs(cv.tail_ratio - 1.0) < 0.05


def test_order_zero_keeps_psi_domain_checks():
    # f_0 = 1 is returned without psi, yet a point within the exclusion radius of
    # a pole of psi (zeta: s = 1; chi4: s = 6) is still refused, at every k
    zeta, chi4 = builtin("zeta"), builtin("chi4")
    assert np.array_equal(coeff_stack_grid(zeta, np.array([0.5 + 20j, 2.0 + 0j]), 0),
                          np.ones((1, 2)))
    for k in (0, 1, 3):
        with pytest.raises(ExcludedRegionError):
            coeff_stack_grid(zeta, np.array([0.5 + 20j, 1.05 + 0j]), k)
        with pytest.raises(ExcludedRegionError):
            chain_grid(chi4, np.array([6.05 + 0.02j]), k)
        with pytest.raises(DomainError):
            coeff_stack_grid(zeta, np.array([complex(math.nan, 1.0)]), k)


def test_box_checked_before_psi():
    # psi at s = 1e20 + i would need ~5e19 recurrence steps; the evaluation
    # box refuses the point first, at every k
    for k in (0, 2):
        with pytest.raises(DomainError, match="outside the supported box"):
            chain_grid(builtin("zeta"), np.array([1e20 + 1j]), k)
