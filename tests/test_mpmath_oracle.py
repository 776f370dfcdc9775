"""Values and error estimates against mpmath at 30 digits, an independent
implementation: zeta off and on the line, Hurwitz zeta s-derivatives, an
L-function of a character on the line, Z^(k) through mpmath.siegelz, and
S(T) through mpmath.nzeros.  Points are seeded; errors must stay within the
reported est_error."""

import mpmath
import numpy as np

from hardyz.catalog import builtin
from hardyz.chain import chain_grid, z_grid
from hardyz.evaluator import l_value_grid
from hardyz.specfun import hurwitz_zeta
from hardyz.zerolab import argument_S


def _mp(fn, s):
    with mpmath.workdps(30):
        return complex(fn(mpmath.mpc(s.real, s.imag)))


def test_zeta_within_est_error_on_strip():
    rng = np.random.default_rng(41)
    ss = rng.uniform(-2.0, 3.0, 120) + 1j * rng.uniform(1.0, 500.0, 120)
    vals, ests = l_value_grid(builtin("zeta"), ss)
    errs = np.array([abs(_mp(mpmath.zeta, s) - v) for s, v in zip(ss, vals)])
    assert np.all(errs <= ests), ss[np.argmax(errs / ests)]


def test_hurwitz_derivatives_within_est_error():
    rng = np.random.default_rng(44)
    ss = rng.uniform(-2.0, 3.0, 6) + 1j * rng.uniform(1.0, 500.0, 6)
    for a in (1.0, 0.25):
        for j in (1, 4):
            vals, ests = hurwitz_zeta(ss, a, j, with_error=True)
            errs = np.array([abs(_mp(lambda s: mpmath.zeta(s, a, j), s) - v)
                             for s, v in zip(ss, vals)])
            assert np.all(errs <= ests), (a, j, ss[np.argmax(errs / ests)])


def test_chi4_within_est_error_on_line():
    rng = np.random.default_rng(42)
    ss = 0.5 + 1j * rng.uniform(1.0, 500.0, 40)
    vals, ests = l_value_grid(builtin("chi4"), ss)
    errs = np.array([abs(_mp(lambda s: mpmath.dirichlet(s, [0, 1, 0, -1]), s) - v)
                     for s, v in zip(ss, vals)])
    assert np.all(errs <= ests), ss[np.argmax(errs / ests)]


def test_z_derivatives_against_siegelz():
    # within 1e-10 for k <= 3; Z^(4) misses that bound (by up to 2.1e-10)
    # and is held to the est_error of F_4 instead, of which it uses < 0.5%
    rng = np.random.default_rng(43)
    ts = rng.uniform(5.0, 500.0, 10)
    zeta = builtin("zeta")
    for k in range(5):
        vals, _ = z_grid(zeta, ts, k)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.siegelz(t, derivative=k)) for t in ts])
        errs = np.abs(vals - ref)
        if k <= 3:
            assert np.max(errs) <= 1e-10, k
        else:
            ests = chain_grid(zeta, 0.5 + 1j * ts, k)[2][k]
            assert np.all(errs <= ests), ts[np.argmax(errs / ests)]


def test_argument_s_against_nzeros():
    # N(T) = theta(T)/pi + 1 + S(T) for zeta, with N(T) counted by mpmath
    # from its own zero locations and Gram points
    rng = np.random.default_rng(45)
    zeta = builtin("zeta")
    for T in rng.uniform(20.0, 480.0, 6):
        with mpmath.workdps(30):
            want = float(mpmath.nzeros(T) - mpmath.siegeltheta(T) / mpmath.pi - 1)
        assert abs(argument_S(zeta, 0, T) - want) <= 1e-10, T
