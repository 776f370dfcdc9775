"""Catalog data: structural validation, coefficient providers, gating."""

import math

import numpy as np
import pytest

from hardyz.catalog import CuspFormProvider, builtin, catalog_listing, coefficients
from hardyz.errors import CatalogError, DomainError, PrecisionError

from oracles import TAU, sigma11_mod


def test_listing_names_and_degrees():
    rows = catalog_listing()
    names = [r["name"] for r in rows]
    assert names == ["zeta", "chi3", "chi4", "chi5"]
    assert all(r["degree"] == 1.0 for r in rows)
    assert rows[0]["m_F"] == 1
    assert all(r["m_F"] == 0 for r in rows[1:])


def test_listing_experimental_adds_delta():
    rows = catalog_listing(experimental=True)
    assert [r["name"] for r in rows][-1] == "delta"
    delta_row = rows[-1]
    assert delta_row["degree"] == 2.0
    assert delta_row["provider_kind"] == "cusp-form"


def test_q_factors():
    assert math.isclose(builtin("zeta").q_factor, 1.0 / math.sqrt(math.pi),
                        rel_tol=1e-15)
    assert math.isclose(builtin("chi3").q_factor, math.sqrt(3.0 / math.pi),
                        rel_tol=1e-15)
    assert math.isclose(builtin("chi4").q_factor, 2.0 / math.sqrt(math.pi),
                        rel_tol=1e-15)
    assert math.isclose(builtin("chi5").q_factor, math.sqrt(5.0 / math.pi),
                        rel_tol=1e-15)
    assert math.isclose(builtin("delta", experimental=True).q_factor,
                        1.0 / (2.0 * math.pi), rel_tol=1e-15)


def test_unknown_name_raises():
    with pytest.raises(CatalogError):
        builtin("nope")


def test_delta_gated_without_flag():
    with pytest.raises(CatalogError):
        builtin("delta")


def test_periodic_coefficients():
    chi4 = builtin("chi4")
    a = coefficients(chi4, 8)
    assert np.array_equal(a, np.array([1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0]))
    chi3 = builtin("chi3")
    b = coefficients(chi3, 9)
    assert np.array_equal(b, np.array([1.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0, -1.0, 0.0]))
    # non-principal characters sum to zero over a period
    for name in ("chi3", "chi4", "chi5"):
        c = coefficients(builtin(name), 60)
        assert abs(c.sum()) < 1e-14


def test_constant_one_coefficients():
    a = coefficients(builtin("zeta"), 5)
    assert np.array_equal(a, np.ones(5))


def test_tau_classical_table():
    delta = builtin("delta", experimental=True)
    a = coefficients(delta, 10)
    n = np.arange(1, 11)
    tau = np.rint(a * n ** 5.5).astype(np.int64)
    assert tau.tolist() == TAU


def test_tau_hecke_relations():
    delta = builtin("delta", experimental=True)
    a = coefficients(delta, 100)
    n = np.arange(1, 101)
    tau = np.rint(a * n ** 5.5).astype(np.int64)

    def t(m):
        return int(tau[m - 1])

    # multiplicativity on coprime pairs and the p^2 recursion
    assert t(6) == t(2) * t(3)
    assert t(10) == t(2) * t(5)
    assert t(15) == t(3) * t(5)
    assert t(4) == t(2) ** 2 - 2 ** 11
    assert t(9) == t(3) ** 2 - 3 ** 11
    assert t(25) == t(5) ** 2 - 5 ** 11


def test_tau_ramanujan_congruence():
    # tau(n) = sigma_11(n) mod 691, a deep identity the convolution cannot
    # satisfy by accident
    delta = builtin("delta", experimental=True)
    a = coefficients(delta, 60)
    n = np.arange(1, 61)
    tau = np.rint(a * n ** 5.5).astype(np.int64)
    for m in range(1, 61):
        assert int(tau[m - 1]) % 691 == sigma11_mod(m, 691)


def test_tau_matches_plain_convolution():
    # the reference: truncated self-convolution of exact integer lists,
    # three times from the Jacobi series of the cube of the Euler product
    def conv(c):
        out = [0] * len(c)
        for i, ci in enumerate(c):
            for j in range(len(c) - i):
                out[i + j] += ci * c[j]
        return out

    for n_max in (1, 2, 3, 37, 500):
        p = [0] * n_max
        k = 0
        while k * (k + 1) // 2 < n_max:
            p[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
            k += 1
        for _ in range(3):
            p = conv(p)
        assert CuspFormProvider._tau_block(n_max) == p


def test_coefficients_validation():
    zeta = builtin("zeta")
    assert coefficients(zeta, 0).shape == (0,)
    for bad in (-1, True):
        with pytest.raises(DomainError):
            coefficients(zeta, bad)
    delta = builtin("delta", experimental=True)
    with pytest.raises(PrecisionError):
        coefficients(delta, 200_000)


def test_builtin_caches_instances():
    assert builtin("zeta") is builtin("zeta")
