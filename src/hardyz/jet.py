"""Derivative jets: the rows h, h', h'', ... of a function at a point.

Row n of a jet is the n-th derivative, a number or an array over a batch of
points.  Two rules build every jet the package forms:

* the Leibniz rule (b a)^(n) = sum_i C(n, i) b^(n-i) a^(i) for a product,
* the complete Bell polynomials B_n(x_1, ..., x_n), the jet of
  exp(g(s) - g(s0)) at s0 when x_l = g^(l)(s0), by the recurrence
  B_{n+1} = sum_i C(n, i) B_{n-i} x_{i+1}, which is Leibniz on
  exp(g)' = g' exp(g).

Each row adds its terms in increasing i, so it has the same bits in any
batch and however many rows are asked for.
"""

from __future__ import annotations

import math

import numpy as np


def leibniz(b, a, n: int, first: int = 0):
    """Row n of the product jet b a without its terms i < first:
    sum_{i = first..n} C(n, i) b[n-i] a[i], where a[i] = 0 past the end of a."""
    return sum(math.comb(n, i) * b[n - i] * a[i] for i in range(first, min(n, len(a) - 1) + 1))


def mul(b, a) -> np.ndarray:
    """The product jet b a to the order of b."""
    return np.array([leibniz(b, a, n) for n in range(len(b))])


def exp(x, k: int) -> np.ndarray:
    """B_0 .. B_k in x_l = x[l-1], shape (k+1,) + x[0].shape: the jet of
    exp(g(s) - g(s0)) when x holds g', g'', ... at s0."""
    out = np.empty((k + 1,) + np.shape(x)[1:], dtype=np.complex128)
    out[0] = 1.0
    for n in range(k):
        out[n + 1] = leibniz(out, x, n)
    return out
