"""Special-function layer: log-gamma, polygamma, Hurwitz zeta with
s-derivatives.  References are scipy (independent implementation) plus the
frozen multiprecision tables in oracles.py."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

from hardyz.catalog import builtin
from hardyz.errors import DomainError, PoleError, UnsupportedOrderError
from hardyz.evaluator import l_value_grid
from hardyz.specfun import (_bernoulli_exact, _log_gamma_rows, hurwitz_zeta, log_gamma,
                            polygamma, series_terms, tier_lengths)

from oracles import (HURWITZ_REFS, LOGGAMMA_REFS, POLYGAMMA_REFS, STIELTJES_1,
                     fd_derivative)


def test_bernoulli_exact_values():
    b = _bernoulli_exact(12)
    assert b[2] == Fraction(1, 6)
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)
    assert b[12] == Fraction(-691, 2730)
    assert b[3] == 0 and b[5] == 0


def test_log_gamma_matches_scipy():
    rng = np.random.default_rng(11)
    # cover both the direct Stirling region and the recurrence-shift region
    re = rng.uniform(-6.0, 30.0, 120)
    im = rng.uniform(-80.0, 80.0, 120)
    z = re + 1j * im
    keep = np.abs(z.imag) > 1e-3  # stay off the real-axis poles
    z = z[keep]
    ours = log_gamma(z)
    ref = sps.loggamma(z)
    scale = 1.0 + np.abs(ref)
    assert np.max(np.abs(ours - ref) / scale) < 5e-14


def test_log_gamma_reference_values():
    for z, ref in LOGGAMMA_REFS:
        got = complex(log_gamma(np.array([z]))[0])
        assert abs(got - ref) < 1e-12 * (1.0 + abs(ref))


def test_log_gamma_real_positive():
    got = complex(log_gamma(np.array([complex(7.0, 0.0)]))[0])
    assert abs(got - math.log(720.0)) < 1e-12


def test_log_gamma_pole_raises():
    for bad in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma(np.array([complex(bad, 0.0)]))


def test_log_gamma_recurrence_step_cap():
    # up to 1000 unit steps below the shift target are walked; a start
    # further left (or at -inf) is refused instead of walked for ever
    z = complex(-987.5, 0.5)
    ref = sps.loggamma(z)
    assert abs(log_gamma(z) - ref) < 5e-14 * abs(ref)
    assert abs(polygamma(0, z) - sps.digamma(z)) < 5e-14 * abs(sps.digamma(z))
    for bad in (complex(-988.5, 0.5), complex(-1e5, 1.0), complex(-1e20, 1.0)):
        with pytest.raises(DomainError):
            log_gamma(bad)
        with pytest.raises(DomainError):
            polygamma(0, bad)
    with pytest.raises(DomainError):
        polygamma(16, complex(-972.5, 0.5))  # target 28 for m = 16


def test_non_finite_arguments_refused():
    for bad in (complex(math.nan, 1.0), complex(math.inf, 1.0), complex(-math.inf, 1.0),
                complex(0.5, math.inf), complex(0.5, math.nan)):
        with pytest.raises(DomainError):
            log_gamma(bad)
        with pytest.raises(DomainError):
            polygamma(2, np.array([complex(2.0, 1.0), bad]))
        for sub_pole in (False, True):
            with pytest.raises(DomainError):
                hurwitz_zeta(bad, sub_pole=sub_pole)


def test_polygamma_matches_scipy_real():
    x = np.linspace(0.25, 25.0, 40)
    for m in range(0, 7):
        ours = polygamma(m, x.astype(complex))
        ref = sps.polygamma(m, x)
        assert np.max(np.abs(ours.real - ref) / (1.0 + np.abs(ref))) < 2e-13
        assert np.max(np.abs(ours.imag)) < 1e-13 * np.max(1.0 + np.abs(ref))


def test_polygamma_reference_values():
    for m, z, ref in POLYGAMMA_REFS:
        got = complex(polygamma(m, np.array([z]))[0])
        assert abs(got - ref) < 1e-12 * (1.0 + abs(ref))


def test_polygamma_recurrence_identity():
    # psi^(m)(z+1) = psi^(m)(z) + (-1)^m m! z^(-m-1)
    for m in (0, 1, 3, 5):
        for z in (complex(0.3, 2.0), complex(-4.6, 1.1), complex(2.0, -9.0)):
            lhs = complex(polygamma(m, np.array([z + 1.0]))[0])
            rhs = complex(polygamma(m, np.array([z]))[0]) \
                + (-1.0) ** m * math.factorial(m) * z ** (-m - 1)
            assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_walk_rows_equal_single_rows():
    # each row stops at its own Stirling target, so it has the same bits in
    # any range of rows as alone (log_gamma and polygamma are single rows)
    rng = np.random.default_rng(23)
    z = rng.uniform(-60.0, 40.0, 200) + 1j * rng.uniform(-300.0, 300.0, 200)
    z[:60] = z[:60].real + 1j * rng.uniform(-1.0, 1.0, 60)
    z = z[np.abs(z - np.rint(z.real)) > 1e-3]
    for _ in range(8):
        lo = int(rng.integers(0, 18))
        hi = int(rng.integers(lo + 1, 19))
        rows = _log_gamma_rows(z, range(lo, hi))
        for n, row in zip(range(lo, hi), rows):
            alone = log_gamma(z) if n == 0 else polygamma(n - 1, z)
            assert row.tobytes() == alone.tobytes(), (lo, hi, n)


def test_polygamma_order_cap():
    with pytest.raises(UnsupportedOrderError):
        polygamma(17, np.array([complex(2.0, 0.0)]))


def test_polygamma_pole_raises():
    with pytest.raises(PoleError):
        polygamma(1, np.array([complex(-3.0, 0.0)]))


def test_hurwitz_closed_forms():
    pts = [(0.0, -0.5), (-1.0, -1.0 / 12.0),
           (2.0, math.pi ** 2 / 6.0), (4.0, math.pi ** 4 / 90.0)]
    for s, want in pts:
        got = complex(hurwitz_zeta(np.array([complex(s, 0.0)]))[0])
        assert abs(got.real - want) < 1e-14 * (1.0 + abs(want))
        assert got.imag == 0.0


def test_hurwitz_half_shift_identity():
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    for s in (complex(2.5, 0.0), complex(0.5, 7.0), complex(-1.2, 20.0)):
        lhs = complex(hurwitz_zeta(np.array([s]), a=0.5)[0])
        rhs = (2.0 ** s - 1.0) * complex(hurwitz_zeta(np.array([s]))[0])
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_hurwitz_reference_table():
    for s, a, j, ref in HURWITZ_REFS:
        val, est = hurwitz_zeta(np.array([s]), a=a, deriv=j, with_error=True)
        err = abs(complex(val[0]) - ref)
        # value correct within its own reported bar, and the bar itself honest
        assert err <= max(float(est[0]), 1e-13 * (1.0 + abs(ref)))
        assert err <= 1e-6 * (1.0 + abs(ref))


def test_hurwitz_direct_sum_oracle():
    # independent check in the absolutely convergent region: partial sum
    # plus integral tail plus half-term; remainder below 0.1*|s|*(N+a)^(-sigma-1)
    rng = np.random.default_rng(3)
    n_terms = 20000
    n = np.arange(n_terms)
    for _ in range(12):
        sigma = rng.uniform(1.6, 6.0)
        t = rng.uniform(0.0, 50.0)
        a = float(rng.choice([1.0, 0.25, 0.5, 0.75]))
        s = complex(sigma, t)
        partial = np.sum((n + a) ** (-s))
        big = n_terms + a
        oracle = partial + big ** (1.0 - s) / (s - 1.0) + 0.5 * big ** (-s)
        bound = 0.2 * abs(s) * big ** (-sigma - 1.0)
        val, est = hurwitz_zeta(np.array([s]), a=a, with_error=True)
        assert abs(complex(val[0]) - oracle) <= bound + float(est[0]) + 1e-12


def test_hurwitz_derivative_vs_fd():
    pts = [(complex(2.2, 6.0), 1.0), (complex(0.6, 18.0), 0.25),
           (complex(-1.0, 9.0), 0.75)]
    for s0, a in pts:
        for j in (1, 2, 3):
            def lower(x, _j=j - 1, _a=a, _im=s0.imag):
                return complex(hurwitz_zeta(
                    np.array([complex(x, _im)]), a=_a, deriv=_j)[0])
            fd_re = fd_derivative(lambda x: lower(x).real, s0.real, h=5e-3)
            fd_im = fd_derivative(lambda x: lower(x).imag, s0.real, h=5e-3)
            got = complex(hurwitz_zeta(np.array([s0]), a=a, deriv=j)[0])
            assert abs(complex(fd_re, fd_im) - got) < 1e-7 * (1.0 + abs(got))


def test_hurwitz_sub_pole_digamma_anchor():
    # lim_{s->1} [zeta(s,a) - 1/(s-1)] = -psi(a)
    for a in (1.0, 0.25, 0.75):
        got = complex(hurwitz_zeta(np.array([complex(1.0, 0.0)]), a=a,
                                   sub_pole=True)[0])
        want = -complex(polygamma(0, np.array([complex(a, 0.0)]))[0])
        assert abs(got - want) < 1e-12 * (1.0 + abs(want))


def test_hurwitz_sub_pole_stieltjes_derivative():
    # d/ds [zeta(s) - 1/(s-1)] at s=1 equals -gamma_1
    got = complex(hurwitz_zeta(np.array([complex(1.0, 0.0)]), deriv=1,
                               sub_pole=True)[0])
    assert abs(got.real - (-STIELTJES_1)) < 1e-12
    assert abs(got.imag) < 1e-13


def test_hurwitz_sub_pole_matches_plain_far_from_pole():
    s = complex(3.0, 2.0)
    for j in (0, 1, 2):
        plain = complex(hurwitz_zeta(np.array([s]), deriv=j)[0])
        sub = complex(hurwitz_zeta(np.array([s]), deriv=j, sub_pole=True)[0])
        pole_part = (-1.0) ** j * math.factorial(j) * (s - 1.0) ** (-j - 1)
        assert abs(sub - (plain - pole_part)) < 1e-12 * (1.0 + abs(plain))


def test_hurwitz_sub_pole_smooth_across_one():
    # the near-pole Taylor branch and the far branch must agree where they meet
    center = complex(hurwitz_zeta(np.array([complex(1.0, 0.0)]), sub_pole=True)[0])
    for eps in (1e-6, 1e-4, 1e-2):
        left = complex(hurwitz_zeta(np.array([complex(1.0 - eps, 0.0)]), sub_pole=True)[0])
        right = complex(hurwitz_zeta(np.array([complex(1.0 + eps, 0.0)]), sub_pole=True)[0])
        assert abs(left - center) < 1e-5 + 2.0 * eps
        assert abs(right - center) < 1e-5 + 2.0 * eps


def test_hurwitz_validation():
    with pytest.raises(DomainError):
        hurwitz_zeta(np.array([complex(2.0, 0.0)]), a=1.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(np.array([complex(2.0, 0.0)]), a=0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(complex(2.0, 1.0), a=True)
    with pytest.raises(UnsupportedOrderError):
        hurwitz_zeta(np.array([complex(2.0, 0.0)]), deriv=5)
    with pytest.raises(PoleError):
        hurwitz_zeta(np.array([complex(1.0, 0.0)]))
    # a direct sum longer than 4e6 terms (a row of 1e9 would take ~24 GB) is
    # refused before anything is allocated; at Im s = 2e7 the remainder bound
    # asks for 5.5e6 terms
    with pytest.raises(DomainError):
        hurwitz_zeta(complex(0.5, 1e9))
    with pytest.raises(DomainError):
        hurwitz_zeta(np.array([complex(0.5, 10.0), complex(0.5, 2e7)]))


def test_hurwitz_repeat_call_determinism():
    ss = np.array([complex(0.5, 10.0), complex(2.0, 40.0), complex(-1.0, 3.0)])
    first = hurwitz_zeta(ss, a=0.75, deriv=1)
    second = hurwitz_zeta(ss, a=0.75, deriv=1)
    assert np.array_equal(first, second)


def test_hurwitz_vector_scalar_agreement():
    # each point sizes its own direct sum, so a value and its estimate do
    # not depend on the batch they are computed in
    ss = np.array([complex(0.5, 10.0), complex(2.0, 40.0), complex(-1.0, 3.0),
                   complex(0.5, 480.0)])
    for sub_pole in (False, True):
        vec, vec_est = hurwitz_zeta(ss, a=0.75, deriv=1, with_error=True, sub_pole=sub_pole)
        for i, s in enumerate(ss):
            one, one_est = hurwitz_zeta(np.array([s]), a=0.75, deriv=1,
                                        with_error=True, sub_pole=sub_pole)
            assert one[0] == vec[i] and one_est[0] == vec_est[i]


def test_single_point_matches_batch():
    # a value and its estimate have the same bits alone as in a batch of 2 to
    # 8 points; these seeded batches hold points where an in-place complex
    # multiply in the Euler-Maclaurin finish once rounded otherwise
    zeta, chi4 = builtin("zeta"), builtin("chi4")
    for seed in range(240, 266):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        ss = rng.uniform(-4.0, 3.0, n) + 1j * rng.uniform(-30.0, 30.0, n)
        for j in range(3):
            batch = hurwitz_zeta(ss, a=0.75, deriv=j, with_error=True)
            for i in range(n):
                one = hurwitz_zeta(ss[i:i + 1], a=0.75, deriv=j, with_error=True)
                assert (one[0][0], one[1][0]) == (batch[0][i], batch[1][i]), (seed, j, ss[i])
        for datum in (zeta, chi4):
            batch = l_value_grid(datum, ss)
            for i in range(n):
                one = l_value_grid(datum, ss[i:i + 1])
                assert (one[0][0], one[1][0]) == (batch[0][i], batch[1][i]), (datum.name, ss[i])


def test_hurwitz_series_length_per_point():
    # a length is a function of s alone, never above max(20, ceil|Im s|) on
    # the tier of 32, and where it is below that, the remainder bound at
    # abscissa N (below N + a for every shift a) is at or below the rounding
    # allowance on the moduli of the first N - 1 terms
    rng = np.random.default_rng(31)
    ss = np.concatenate([rng.uniform(-4.0, 3.0, 200) + 1j * rng.uniform(-600.0, 600.0, 200),
                         [0.5, 3j, 0.5 + 20j, 0.5 + 20.5j, -4.0 - 499.2j, 350.0 + 600j]])
    n = series_terms(ss)
    assert [int(series_terms(s)) for s in ss] == n.tolist()
    cap = tier_lengths(ss.imag)
    assert np.all(n >= 20) and np.all(n <= cap) and np.all((n - 20) % 32 == 0)
    for s, m in zip(ss[n < cap], n[n < cap].tolist()):
        alpha = s.real + 29.0
        bound = 4.0 * math.prod(abs(s + c) for c in range(30)) * (2.0 * math.pi) ** -30 \
            * m ** -alpha / alpha
        allowance = (5e-15 + 2e-16 * abs(s.imag)) * math.fsum(k ** -s.real for k in range(1, m))
        assert bound <= allowance, (s, m)
    # about 0.4 |t| terms high on the strip, where the old rule took |t|
    high = np.abs(ss.imag) >= 200.0
    assert np.mean(n[high] / np.abs(ss.imag[high])) < 0.5
    assert list(tier_lengths(np.array([0.0, 3.0, 20.0]), floor=320)) == [320, 320, 320]
