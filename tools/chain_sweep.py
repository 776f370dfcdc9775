"""Digest the arrays of the derivative chain and the Euler-Maclaurin finish.

    python3 tools/chain_sweep.py CHECKOUT

imports hardyz from CHECKOUT/src and prints one line per array: its name
and the sha256 of its bytes.  Two checkouts print identical lines exactly
when every array has the same bits, so `diff` of two runs lists each array
that moved.  The arrays, per datum zeta, chi3, chi4 and chi5 on 800 seeded
points s in [-1.5, 2.5] + i[5, 480] (numpy default_rng(2027), one generator
for the four data in that order):

* rows 0..8 of the f, F and est stacks of chain_grid(datum, s, 8),
* chain_coeff_tail(datum, s, k) for k = 0..8 on the first 100 points,
* the values and error estimates of l_value_grid,
* rows 0..8 of the values and error estimates of l_derivs_grid(datum, s, 8),

then the rows Z^(0..8) and their imaginary residuals from one
chain._z_stack call per datum (with ctx=None where _z_stack still takes a
context) on 800 seeded t in [5, 480] (default_rng(2028),
one generator for the four data in the same order), and, on the points of
zeta, the values and error estimates of
hurwitz_zeta for deriv 0..4, a in {1, 1/4, 3/4, 1/3}, with and without
sub_pole.  Last come the experimental datum delta's values and error
estimates of l_value_grid on 800 seeded points s in [-1.5, 2.5] + i[5, 480],
on both sides of Re s = 1/2 where its series reflects, and the values and
imaginary residuals of z_grid(delta, t, k) for k = 0..2 on 200 seeded t in
[10, 60] (one default_rng(2029) for both, points first).
"""

from __future__ import annotations

import hashlib
import inspect
import sys
from pathlib import Path

import numpy as np

DATA = ("zeta", "chi3", "chi4", "chi5")
POINTS = 800
TAIL_POINTS = 100
K = 8
SHIFTS = (("1", 1.0), ("1/4", 0.25), ("3/4", 0.75), ("1/3", 1.0 / 3.0))
DELTA_HEIGHTS = 200
DELTA_K = 2


def sweep_points() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(2027)
    return {name: rng.uniform(-1.5, 2.5, POINTS) + 1j * rng.uniform(5.0, 480.0, POINTS)
            for name in DATA}


def sweep_heights() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(2028)
    return {name: rng.uniform(5.0, 480.0, POINTS) for name in DATA}


def digest(name: str, arr) -> None:
    data = np.ascontiguousarray(arr)
    print(f"{name} | {data.dtype} {data.shape} | {hashlib.sha256(data.tobytes()).hexdigest()}",
          flush=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/chain_sweep.py CHECKOUT", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    from hardyz.catalog import builtin
    from hardyz.chain import _z_stack, chain_coeff_tail, chain_grid, z_grid
    from hardyz.evaluator import l_derivs_grid, l_value_grid
    from hardyz.specfun import hurwitz_zeta

    points = sweep_points()
    for name, s in points.items():
        datum = builtin(name)
        for label, stack in zip(("f", "F", "est"), chain_grid(datum, s, K)):
            for j in range(K + 1):
                digest(f"{name} chain_grid {label}[{j}]", stack[j])
        for k in range(K + 1):
            digest(f"{name} chain_coeff_tail k={k}",
                   [chain_coeff_tail(datum, x, k) for x in s[:TAIL_POINTS]])
        vals, errs = l_value_grid(datum, s)
        digest(f"{name} l_value_grid value", vals)
        digest(f"{name} l_value_grid est", errs)
        for label, stack in zip(("value", "est"), l_derivs_grid(datum, s, K)):
            for j in range(K + 1):
                digest(f"{name} l_derivs_grid {label}[{j}]", stack[j])
    # a checkout whose _z_stack still takes a context gets the default one
    ctx = (None,) * ("ctx" in inspect.signature(_z_stack).parameters)
    for name, t in sweep_heights().items():
        for label, stack in zip(("Z", "resid"), _z_stack(builtin(name), t, K, *ctx)):
            for j in range(K + 1):
                digest(f"{name} _z_stack {label}[{j}]", stack[j])
    for label, a in SHIFTS:
        for deriv in range(5):
            for sub_pole in (False, True):
                vals, errs = hurwitz_zeta(points["zeta"], a=a, deriv=deriv, with_error=True,
                                          sub_pole=sub_pole)
                tag = f"hurwitz_zeta a={label} deriv={deriv} sub_pole={sub_pole}"
                digest(f"{tag} value", vals)
                digest(f"{tag} est", errs)
    delta = builtin("delta", experimental=True)
    rng = np.random.default_rng(2029)
    s = rng.uniform(-1.5, 2.5, POINTS) + 1j * rng.uniform(5.0, 480.0, POINTS)
    vals, errs = l_value_grid(delta, s)
    digest("delta l_value_grid value", vals)
    digest("delta l_value_grid est", errs)
    t = rng.uniform(10.0, 60.0, DELTA_HEIGHTS)
    for k in range(DELTA_K + 1):
        for label, row in zip(("Z", "resid"), z_grid(delta, t, k)):
            digest(f"delta z_grid {label} k={k}", row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
