"""The Euler-Maclaurin remainder bound of specfun._em_finish against 30-digit
mpmath: with the series cut short where the Bernoulli series starts to
diverge, and over the evaluation box at the lengths of specfun.series_terms.
Each assertion message names the worst error/estimate ratio."""

import mpmath
import numpy as np
import pytest

from hardyz import catalog
from hardyz.catalog import builtin
from hardyz.evaluator import l_value_grid

CHARACTERS = {"zeta": [1], "chi3": [0, 1, -1], "chi4": [0, 1, 0, -1], "chi5": [0, 1, -1, -1, 1]}


def _reference(name: str, s: complex) -> complex:
    """F(s) = q^(-s) sum_a chi(a) zeta(s, a/q) at 30 digits."""
    chi = CHARACTERS[name]
    q = len(chi)
    with mpmath.workdps(30):
        x = mpmath.mpc(s.real, s.imag)
        if q == 1:
            return complex(mpmath.zeta(x))
        return complex(mpmath.power(q, -x) * mpmath.fsum(
            c * mpmath.zeta(x, mpmath.mpf(a) / q) for a, c in enumerate(chi) if c))


def _worst(name: str, ss: np.ndarray, vals: np.ndarray, ests: np.ndarray) -> tuple[bool, str]:
    errs = np.abs(np.array([_reference(name, s) for s in ss]) - vals)
    ratio = errs / ests
    i = int(np.argmax(ratio))
    return bool(np.all(errs <= ests)), f"{name}: worst error/estimate {ratio[i]:.3g} at s = {ss[i]}"


@pytest.mark.parametrize("name", ["zeta", "chi4"])
def test_bound_holds_with_short_series(monkeypatch, name):
    # N = ceil(|s| / 2 pi): the Bernoulli terms no longer fall, and an
    # estimate of four times the last of 12 terms falls short of the error
    # by a factor of 1.5 on these points
    datum = builtin(name)
    monkeypatch.setattr(catalog, "series_terms",
                        lambda s: np.ceil(np.abs(s) / (2.0 * np.pi)).astype(np.int64))
    rng = np.random.default_rng(47)
    ss = rng.uniform(-0.5, 1.5, 12) + 1j * rng.uniform(20.0, 500.0, 12)
    ok, worst = _worst(name, ss, *l_value_grid(datum, ss))
    assert ok, worst


@pytest.mark.parametrize("name", list(CHARACTERS))
def test_bound_holds_over_the_box(name):
    rng = np.random.default_rng(48)
    ss = rng.uniform(-4.0, 3.0, 12) + 1j * rng.uniform(-600.0, 600.0, 12)
    ok, worst = _worst(name, ss, *l_value_grid(builtin(name), ss))
    assert ok, worst
