"""Values and error estimates against mpmath, an independent implementation,
at 30 digits (60 for the Hurwitz s-derivatives): zeta off and on the line,
Hurwitz zeta s-derivatives (pole-subtracted next to s = 1 as well), zeta
and the characters over the evaluation box and next to s = 1, Z^(k)
through mpmath.siegelz, and S(T) through mpmath.nzeros.  Points are seeded; errors must stay within the
reported est_error.  The chain coefficient tails are checked against their
partition sums over mpmath polygamma, and every row of the log Gamma walk
(log Gamma and psi^(0..16)) against mpmath.loggamma and mpmath.psi."""

import math

import mpmath
import numpy as np
import pytest

from hardyz.catalog import BUILTIN_NAMES, builtin
from hardyz.chain import chain_coeff_tail, chain_grid, z_grid
from hardyz.evaluator import l_value_grid
from hardyz.specfun import _BERNOULLI_PAIRS, _SHIFT_REAL, _log_gamma_rows, hurwitz_zeta
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
    # strip points, and pole-subtracted values next to s = 1 against
    # mpmath minus the pole part d^j/ds^j 1/(s-1) at 60 digits
    rng = np.random.default_rng(44)
    strip = rng.uniform(-2.0, 3.0, 4) + 1j * rng.uniform(1.0, 500.0, 4)
    near_pole = np.array([1.0 + 1e-7, 0.6 + 0.3j, 1.9 - 0.4j])
    for a in (1.0, 0.25, 0.75):
        for j in range(5):
            for ss, sub_pole in ((strip, False), (near_pole, True)):
                vals, ests = hurwitz_zeta(ss, a, j, with_error=True, sub_pole=sub_pole)
                with mpmath.workdps(60):
                    refs = []
                    for s in ss:
                        x = mpmath.mpc(s.real, s.imag)
                        ref = mpmath.zeta(x, a, j)
                        if sub_pole:
                            ref -= (-1) ** j * mpmath.factorial(j) * (x - 1) ** (-j - 1)
                        refs.append(complex(ref))
                errs = np.abs(np.array(refs) - vals)
                assert np.all(errs <= ests), (a, j, sub_pole, ss[np.argmax(errs / ests)])


def test_chi4_within_est_error_on_line():
    rng = np.random.default_rng(42)
    ss = 0.5 + 1j * rng.uniform(1.0, 500.0, 40)
    vals, ests = l_value_grid(builtin("chi4"), ss)
    errs = np.array([abs(_mp(lambda s: mpmath.dirichlet(s, [0, 1, 0, -1]), s) - v)
                     for s, v in zip(ss, vals)])
    assert np.all(errs <= ests), ss[np.argmax(errs / ests)]


CHARACTERS = {"chi3": [0, 1, -1], "chi4": [0, 1, 0, -1], "chi5": [0, 1, -1, -1, 1]}


@pytest.mark.parametrize("name", ["zeta", *CHARACTERS])
def test_l_values_within_est_error_on_box(name):
    # seeded s with sigma in [-4, 3] and |t| <= 600; for a character mod q
    # the reference is q^(-s) sum_a chi(a) zeta(s, a/q), and next to s = 1,
    # a regular point of every character, mpmath.dirichlet itself
    rng = np.random.default_rng(46)
    ss = rng.uniform(-4.0, 3.0, 10) + 1j * rng.uniform(-600.0, 600.0, 10)
    refs = []
    with mpmath.workdps(30):
        for s in ss:
            x = mpmath.mpc(s.real, s.imag)
            if name == "zeta":
                refs.append(complex(mpmath.zeta(x)))
            else:
                chi = CHARACTERS[name]
                q = len(chi)
                refs.append(complex(mpmath.power(q, -x) * mpmath.fsum(
                    c * mpmath.zeta(x, mpmath.mpf(a) / q) for a, c in enumerate(chi) if c)))
        if name != "zeta":
            near = 1.0 + 1e-3 * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 3)) * rng.uniform(0.0, 1.0, 3)
            ss = np.concatenate([ss, near, [1.0]])
            refs += [complex(mpmath.dirichlet(mpmath.mpc(s.real, s.imag), CHARACTERS[name]))
                     for s in ss[10:]]
    vals, ests = l_value_grid(builtin(name), ss)
    errs = np.abs(np.array(refs) - vals)
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


def _partitions(k, top=None):
    """Multiplicity maps {l: a_l} with sum l * a_l = k, parts at most top."""
    top = k if top is None else top
    if k == 0:
        yield {}
        return
    for l in range(min(k, top), 0, -1):
        for a in range(k // l, 0, -1):
            for rest in _partitions(k - l * a, l - 1):
                yield {l: a, **rest}


def _mp_psi_derivs(datum, s, n):
    """psi^(0..n-1)(s) for psi = H'/H, differentiated under the gamma sum."""
    z = mpmath.mpc(s.real, s.imag)
    out = []
    for m in range(n):
        acc = -2 * mpmath.log(datum.q_factor) if m == 0 else mpmath.mpc(0)
        for lam, mu in zip(datum.lambdas, datum.mus):
            acc -= mpmath.mpf(lam) ** (m + 1) * ((-1) ** m * mpmath.polygamma(m, lam * (1 - z) + mu)
                                                 + mpmath.polygamma(m, lam * z + mu))
        out.append(acc)
    return out


def test_coeff_tail_against_partition_sum():
    # Lambda_k = f_k - x_1^k with x_l = -psi^(l-1)/2 is the partition sum
    # k! prod_l (x_l / l!)^(a_l) / a_l! without the pure power a_1 = k.
    # Worst error ~2e-15 relative; forming f_k and subtracting x_1^k cancels
    # and misses the bound (4.3e-13 at worst).
    pts = [0.5 + 400j, 0.5 + 100j, 300 + 590j, 6 + 20j, -3.5 + 300j, 2 + 9j]
    for name in ("zeta", "chi4"):
        datum = builtin(name)
        for s in pts:
            with mpmath.workdps(30):
                x = [-p / 2 for p in _mp_psi_derivs(datum, s, 8)]
                for k in range(2, 9):
                    ref = complex(sum(
                        math.factorial(k) * mpmath.fprod(
                            (x[l - 1] / math.factorial(l)) ** a / math.factorial(a)
                            for l, a in part.items())
                        for part in _partitions(k) if part.get(1, 0) < k))
                    got = chain_coeff_tail(datum, s, k)
                    assert abs(got - ref) <= 1e-13 * abs(ref), (name, s, k)


def test_log_gamma_rows_against_mpmath():
    # Re z in [-170, 40] covers the mirror arguments lambda (1 - s) + mu of
    # the box (>= -174.5 at Re s = 350); a third of the points lie within 1
    # of the real axis, none within 0.05 of a pole.  The walk cannot beat
    # rounding in its largest term, so each row's error is measured against
    # |value| plus the mass sum_k |d^n log(z + k)| of the steps it takes.
    rng = np.random.default_rng(17)
    z = rng.uniform(-170.0, 40.0, 24) + 1j * rng.uniform(-300.0, 300.0, 24)
    z[:8] = z[:8].real + 1j * rng.uniform(-1.0, 1.0, 8)
    z = z[np.abs(z - np.rint(z.real)) > 0.05]
    rows = _log_gamma_rows(z, range(18))
    with mpmath.workdps(30):
        for n in range(18):
            for zi, got in zip(z, rows[n]):
                w = mpmath.mpc(zi.real, zi.imag)
                ref = complex(mpmath.loggamma(w) if n == 0 else mpmath.psi(n - 1, w))
                k = np.arange(max(0, math.ceil(12.0 + max(n - 1, 0) - zi.real)))
                mass = (np.abs(np.log(zi + k)) if n == 0
                        else math.factorial(n - 1) * np.abs(zi + k) ** (-n)).sum()
                assert abs(got - ref) <= 1e-14 * (abs(ref) + mass), (n, zi)


def test_log_gamma_rows_in_the_stirling_sector():
    # each row n stops once Re w >= 0 and |w| >= R_n = 12 + max(n - 1, 0).
    # Points on that boundary take no step: near the imaginary axis (Re w in
    # [0, 1]) and at phases up to pi/2 either side.  The gamma arguments of
    # every built-in datum on the line, t in [30, 500], take few steps or
    # none.  A row's error must stay within the docstring's remainder bound
    # at the stop, |w| >= max(|z|, R_n) for Re z >= 0, plus n + 4 ulps of
    # |value| and of the mass of the steps taken as the walk's rounding; on
    # the boundary that bound is below 1.4e-17 |value|, as the docstring says.
    m = _BERNOULLI_PAIRS
    b_next = abs(float(mpmath.bernoulli(2 * m + 2)))

    def check(n, zi, got):
        radius = _SHIFT_REAL + max(n - 1, 0)
        steps = []
        w = complex(zi)
        while w.real < 0.0 or w.real * w.real + w.imag * w.imag < radius * radius:
            steps.append(w)
            w += 1.0
        steps = np.array(steps)
        mass = (np.abs(np.log(steps)) if n == 0
                else math.factorial(n - 1) * np.abs(steps) ** (-n)).sum()
        with mpmath.workdps(30):
            x = mpmath.mpc(zi.real, zi.imag)
            ref = complex(mpmath.loggamma(x) if n == 0 else mpmath.psi(n - 1, x))
        bound = 2.0 ** (m + 1 + n / 2) * b_next * math.factorial(2 * m + n) \
            / math.factorial(2 * m + 2) * max(abs(zi), radius) ** (-2 * m - 1 - n)
        assert abs(got - ref) <= bound + (n + 4) * 2.3e-16 * (abs(ref) + mass), (n, zi)
        return steps.size, bound / abs(ref)

    rng = np.random.default_rng(29)
    for n in range(18):
        radius = _SHIFT_REAL + max(n - 1, 0)
        x = np.concatenate([rng.uniform(0.0, 1.0, 3), radius * np.cos(rng.uniform(0.0, math.pi / 2, 3))])
        y = np.sqrt(radius * radius - x * x)
        edge = np.concatenate([x + 1j * y, x - 1j * y]) * (1.0 + 1e-15)
        for zi, got in zip(edge, _log_gamma_rows(edge, range(n, n + 1))[0]):
            steps, rel_bound = check(n, zi, got)
            assert steps == 0 and rel_bound < 1.4e-17, (n, zi)
    heights = rng.uniform(30.0, 500.0, 5)
    data = [builtin(name, experimental=True) for name in BUILTIN_NAMES]
    line = np.concatenate([lam * (0.5 + 1j * heights) + mu
                           for d in data for lam, mu in zip(d.lambdas, d.mus)])
    for n, row in enumerate(_log_gamma_rows(line, range(18))):
        for zi, got in zip(line, row):
            check(n, zi, got)
