"""Values and error estimates against mpmath at 30 digits, an independent
implementation: zeta off and on the line, Hurwitz zeta s-derivatives, an
L-function of a character on the line, and Z^(k) through mpmath.siegelz.
Points are seeded; errors must stay within the reported est_error."""

import mpmath
import numpy as np

from hardyz.catalog import builtin
from hardyz.chain import z_grid
from hardyz.evaluator import l_value_grid
from hardyz.specfun import hurwitz_zeta


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
    rng = np.random.default_rng(43)
    ts = rng.uniform(5.0, 500.0, 10)
    zeta = builtin("zeta")
    for k in range(4):
        vals, _ = z_grid(zeta, ts, k)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.siegelz(t, derivative=k)) for t in ts])
        assert np.max(np.abs(vals - ref)) <= 1e-10, k
