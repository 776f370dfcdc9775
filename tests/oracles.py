"""Reference data and independent numerical helpers shared by the tests.

The frozen literals below were generated once with a 30-digit
multiprecision run (and, where marked classical, agree with published
tables).  They are inputs to the tests, not outputs of the package, so a
regression in the package cannot silently move the goalposts.
"""

from __future__ import annotations

import math

import numpy as np

# first zeros of the Riemann Z-function (classical, 17 significant digits)
ZETA_ZEROS = [
    14.134725141734694,
    21.022039638771555,
    25.010857580145689,
    30.424876125859513,
    32.93506158773919,
    37.586178158825671,
    40.918719012147495,
    43.327073280915,
    48.00515088116716,
    49.773832477672302,
]

# zeros of Z'(t) (multiprecision root-finding on the derivative)
ZETA_PRIME_ZEROS = [
    10.212074845235794,
    17.882582076936683,
    23.104650651284011,
    27.735883290710042,
]

# zeros of Z''(t)
ZETA_SECOND_ZEROS = [
    7.2212071474049231,
    14.977010702189714,
    20.751013029543262,
    25.554004456488436,
]

# first zeros of the analogous Z for the odd character mod 4
CHI4_ZEROS = [
    6.0209489046975967,
    10.243770304166555,
    12.988098012312423,
]

# Z^(k)(18) for k = 0..4 (multiprecision)
Z_AT_18 = [
    2.3367996899169519,
    -0.064065029751174256,
    -0.54972033413574817,
    -0.063655657105647531,
    0.16225135686731111,
]

Z_AT_100_5 = 2.2721015291818807
Z_AT_333_3 = -0.9969376269782415

THETA_AT_100 = 87.972165231787219625

# Stieltjes constant gamma_1: first regular Laurent coefficient of
# zeta(s) - 1/(s-1) at s = 1 carries (-1)^1 gamma_1
STIELTJES_1 = -0.07281584548367672486058638

CATALAN = 0.91596559417721901505

# (s, a, deriv) -> d^j/ds^j zeta(s, a), multiprecision references
HURWITZ_REFS = [
    (complex(0.5, 0.0), 1.0, 0, complex(-1.46035450880958681, 0.0)),
    (complex(2.0, 0.0), 1.0, 1, complex(-0.937548254315843754, 0.0)),
    (complex(0.5, 30.0), 1.0, 0, complex(-0.1206422875900437, -0.583691214763706289)),
    (complex(-1.5, 12.0), 1.0, 2, complex(1.64838118419459021, -0.885223981470955575)),
    (complex(3.0, 250.0), 1.0, 1, complex(0.0710158474292096901, -0.0533717892184567851)),
    (complex(-4.0, 500.0), 1.0, 0, complex(-318874441.494171248, 172558129.7966197)),
    (complex(2.0, 5.0), 0.25, 0, complex(12.9922878906228951, 9.22361981263023043)),
    (complex(0.3, 45.0), 0.25, 1, complex(0.1026951225522773, 0.345883351060089089)),
    (complex(-2.0, 8.0), 0.75, 3, complex(0.00423386933727343361, 0.406475197196047573)),
    (complex(1.5, 120.0), 1.0 / 3.0, 0, complex(4.89198686843065717, -0.91743822234507161)),
    (complex(6.0, 0.0), 0.5, 4, complex(14.7813950076376248, 0.0)),
    (complex(0.9, 60.0), 0.5, 2, complex(-1.78742181557854909, -2.37352998077327819)),
]

# (m, z) -> psi^(m)(z), multiprecision references at generic points
POLYGAMMA_REFS = [
    (1, complex(2.5, 3.0), complex(0.155597888471945532, -0.23037955308232353)),
    (2, complex(-3.3, 0.7), complex(-2.87266762894208365, 1.03762814985168067)),
    (3, complex(4.1, 25.0), complex(-5.16985363793259121e-5, 1.12942915922702179e-4)),
    (4, complex(0.25, -1.5), complex(-1.71001554289226518, -1.29035139283752838)),
    (6, complex(12.0, -2.0), complex(-2.41781324962732282e-5, -4.01605060459142388e-5)),
    (0, complex(-14.5, 0.0), complex(2.70823524259036543, 0.0)),
    (2, complex(-14.5, 0.0), complex(-0.00443951891327724401, 0.0)),
]

# z -> log Gamma(z), principal branch, multiprecision references
LOGGAMMA_REFS = [
    (complex(0.5, 40.0), complex(-61.912914538591192, 107.556219869209061)),
    (complex(-5.5, 0.5), complex(-5.41702572833126942, -17.9525266830380342)),
    (complex(9.0, -7.0), complex(7.98442774341791458, -15.6507520499733497)),
]

# Ramanujan tau(1..10) (classical table)
TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


def fd_derivative(fn, x: float, h: float = 1e-3, levels: int = 4) -> float:
    """First derivative of a smooth real function by Richardson extrapolation
    of the central difference.  Truncation falls as h^(2*levels); roundoff
    limits useful accuracy to about 1e-10 for unit-scale functions."""
    table = []
    for i in range(levels):
        step = h / 2.0 ** i
        table.append((fn(x + step) - fn(x - step)) / (2.0 * step))
    table = [table]
    for lev in range(1, levels):
        prev = table[-1]
        fac = 4.0 ** lev
        table.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                      for i in range(len(prev) - 1)])
    return table[-1][0]


def cauchy_derivs(fn, s0: complex, j_max: int, radius: float = 0.3,
                  nodes: int = 64) -> list[complex]:
    """Derivatives 0..j_max of an analytic function by the trapezoid rule on
    a circle.  Independent of the package's internal differentiator."""
    phi = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = s0 + radius * np.exp(1j * phi)
    vals = np.array([fn(z) for z in ring])
    out = []
    for j in range(j_max + 1):
        w = np.exp(-1j * j * phi) / radius ** j / nodes
        out.append(complex(math.factorial(j) * np.sum(vals * w)))
    return out


def theta_reference(datum, t: float) -> float:
    """Phase function from scipy's log-gamma: an implementation disjoint
    from the package's Stirling code."""
    from scipy.special import loggamma

    tot = t * math.log(datum.q_factor)
    for lam, mu in zip(datum.lambdas, datum.mus):
        tot += float(np.imag(loggamma(complex(lam / 2.0 + mu, lam * t))))
    tot -= 0.5 * math.atan2(0.0, datum.omega)
    return tot


def sign_change_roots(fn_vec, lo: float, hi: float, n: int,
                      bisections: int = 60) -> list[float]:
    """Fine-grid sign scan plus plain bisection, written here so the zero
    LOCATIONS do not depend on the package's scanner logic."""
    ts = np.linspace(lo, hi, n)
    vals = fn_vec(ts)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    roots = []
    for i in flips:
        a, b = float(ts[i]), float(ts[i + 1])
        fa = float(vals[i])
        for _ in range(bisections):
            m = 0.5 * (a + b)
            fm = float(fn_vec(np.array([m]))[0])
            if fm == 0.0:
                a = b = m
                break
            if (fa < 0) == (fm < 0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))
    return roots


def zeta_alternating(s: complex, n: int = 100) -> complex:
    """Riemann zeta via the accelerated alternating series (Cohen-Villegas-
    Zagier weights): an evaluation route with no Euler-Maclaurin content,
    accurate to ~(3+sqrt(8))^(-n) in the critical strip."""
    d = np.zeros(n + 1)
    b = 1.0
    c = 1.0
    # d_k = n * sum_{j<=k} (n+j-1)! 4^j / ((n-j)! (2j)!)
    term = 1.0
    acc = np.zeros(n + 1)
    val = 1.0
    for j in range(n + 1):
        acc[j:] += val
        val *= 4.0 * (n + j) * (n - j) / ((2 * j + 1) * (2 * j + 2))
    d = n * acc if n > 0 else acc
    eta = 0.0 + 0.0j
    sign = 1.0
    for k in range(n):
        eta += sign * (d[n] - d[k]) * (k + 1.0) ** (-s)
        sign = -sign
    eta /= d[n]
    return eta / (1.0 - 2.0 ** (1.0 - s))


def divisor_counts(n_max: int) -> np.ndarray:
    """d(n) for n = 1..n_max by a sieve."""
    d = np.zeros(n_max + 1, dtype=np.int64)
    for i in range(1, n_max + 1):
        d[i::i] += 1
    return d[1:]


def jet_mul(a: list[complex], b: list[complex]) -> list[complex]:
    """Truncated Cauchy product of Taylor jets (coefficient lists)."""
    order = min(len(a), len(b))
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(order)]


def jet_diff(a: list[complex]) -> list[complex]:
    """Derivative of a Taylor jet; drops the top coefficient."""
    return [(j + 1) * a[j + 1] for j in range(len(a) - 1)]


def recursion_coeffs(psi_derivs: list[complex], k_max: int) -> list[complex]:
    """Coefficient functions by running the defining recursion
    f_{k+1} = f_k' - (1/2) psi f_k in truncated Taylor arithmetic.

    `psi_derivs[j]` is the j-th derivative of psi at the expansion point.
    No Bell-polynomial or partition combinatorics appears here, so
    agreement with chain_coeff is a genuine two-route check."""
    order = k_max + 1
    psi_jet = [psi_derivs[j] / math.factorial(j) for j in range(order)]
    jets = [[1.0 + 0.0j] + [0.0j] * (order - 1)]
    out = [1.0 + 0.0j]
    for _ in range(k_max):
        cur = jets[-1]
        nxt = jet_diff(cur)
        prod = jet_mul(psi_jet[:len(nxt)], cur[:len(nxt)])
        nxt = [nxt[j] - 0.5 * prod[j] for j in range(len(nxt))]
        jets.append(nxt)
        out.append(complex(nxt[0]))
    return out


def sigma11_mod(n: int, modulus: int) -> int:
    """sum of d^11 over divisors d of n, reduced mod `modulus`."""
    tot = 0
    for d in range(1, n + 1):
        if n % d == 0:
            tot = (tot + pow(d, 11, modulus)) % modulus
    return tot
