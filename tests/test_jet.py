"""Derivative jets: the Leibniz product against an independent Cauchy
product of Taylor coefficients, and the Bell jet against closed forms."""

import math

import numpy as np

from hardyz import jet

from oracles import jet_mul


def _taylor(rows):
    """Taylor coefficients h^(n)/n! of a derivative jet."""
    return [rows[n] / math.factorial(n) for n in range(len(rows))]


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_mul_matches_cauchy_product():
    rng = np.random.default_rng(17)
    for order, short in ((1, 1), (5, 5), (9, 9), (9, 3), (6, 1)):
        b, a = _complex(rng, order), _complex(rng, short)
        got = jet.mul(b, a)
        assert got.shape == (order,)
        # a shorter factor counts as zero in its missing rows
        ref = jet_mul(_taylor(b), _taylor(list(a) + [0.0] * (order - short)))
        assert np.allclose(_taylor(got), ref, rtol=0.0, atol=1e-13)
        top = order - 1
        # first=1 leaves out the term b[n] a[0]
        assert abs(jet.leibniz(b, a, top, first=1) - (got[top] - b[top] * a[0])) < 1e-12


def test_rows_do_not_depend_on_the_batch():
    rng = np.random.default_rng(18)
    b, a = _complex(rng, (7, 5)), _complex(rng, (4, 5))
    batch = jet.mul(b, a)
    bell = jet.exp(b, 6)
    for p in range(5):
        one = slice(p, p + 1)
        assert np.array_equal(batch[:, one], jet.mul(b[:, one], a[:, one]))
        assert np.array_equal(bell[:, one], jet.exp(b[:, one], 6))
    # fewer rows asked for: the same leading rows
    assert np.array_equal(jet.exp(b, 3), bell[:4])


def test_exp_closed_forms():
    k = 8
    for c in (0.7, -1.3 + 0.4j, 2.5j):
        # x = (c, 0, ...): the jet of exp(c s), B_n = c^n
        got = jet.exp([c] + [0.0] * (k - 1), k)
        assert np.allclose(got, [c ** n for n in range(k + 1)], rtol=1e-14, atol=0.0)
        # x = (0, c, 0, ...): the jet of exp(c s^2 / 2), B_2m = (2m-1)!! c^m
        got = jet.exp([0.0, c] + [0.0] * (k - 2), k)
        ref = [0.0 if n % 2 else math.prod(range(1, n, 2)) * c ** (n // 2) for n in range(k + 1)]
        assert np.allclose(got, ref, rtol=1e-14, atol=0.0)
        assert not np.any(got[1::2])
