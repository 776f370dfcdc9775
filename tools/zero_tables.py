"""Compare the zero tables of two checkouts.

    python3 tools/zero_tables.py CHECKOUT_A CHECKOUT_B

scans zeta, chi3, chi4 and chi5 at k = 0..6 on [5, 500] with the default
context, once per checkout, each in a fresh interpreter with
PYTHONPATH=CHECKOUT/src, and also takes the interlace_audit violations at
k = 0..5 from the same tables.  Per table it prints the zero counts of A and
B, whether the advisories are equal, the largest |gamma_A - gamma_B| and
the largest noise radius est_error(F_k)/|F_(k+1)| at 1/2 + i gamma (from
chain_grid on B's zeros): a move above refine_tol where that radius is
larger is a move inside the noise.  It flags a table where a zero moved by
more than refine_tol although its radius is below refine_tol/2, or by more
than its radius elsewhere, and in either checkout every refined bracket
whose width is outside (0, refine_tol] or whose reported zero lies more
than refine_tol/2 from one of its ends (the brackets are read through a
wrapper of zerolab._refine_brackets).  The last lines give the violation
counts.  The exit status is 1 when any table or count differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

DATA = ("zeta", "chi3", "chi4", "chi5")
ORDERS = range(7)
T0, T1 = 5.0, 500.0

CHILD = r"""
import json, sys
import numpy as np
import hardyz
from hardyz import zerolab
from hardyz.chain import chain_grid

tol = hardyz.DEFAULT_CONTEXT.refine_tol
refine, bad = zerolab._refine_brackets, []

def recorded(*args):
    out = refine(*args)
    lo, hi = out[0], out[1]
    gamma = out[2] if len(out) > 2 else 0.5 * (lo + hi)
    off = np.maximum(gamma - lo, hi - gamma)
    bad.extend(int(i) for i in np.flatnonzero(~((hi - lo > 0) & (hi - lo <= tol)) | (off > 0.5 * tol)))
    return out

zerolab._refine_brackets = recorded
out = {"tables": {}, "violations": {}}
for name in DATA:
    datum = hardyz.builtin(name)
    for k in ORDERS:
        del bad[:]
        table = hardyz.scan_zeros(datum, k, T0, T1)
        g = np.array(table.gammas)
        _, big_f, est = chain_grid(datum, 0.5 + 1j * g, k + 1)
        out["tables"][f"{name} {k}"] = {
            "gammas": table.gammas, "advisory": table.advisory,
            "noise": (est[k] / np.abs(big_f[k + 1])).tolist(), "bad_brackets": len(bad)}
    for k in ORDERS[:-1]:
        out["violations"][f"{name} {k}"] = hardyz.interlace_audit(datum, k, T0, T1).violations
print(json.dumps(out))
"""


def run(checkout: str) -> dict:
    src = Path(checkout).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    head = f"DATA, ORDERS, T0, T1 = {DATA!r}, range({len(ORDERS)}), {T0!r}, {T1!r}\n"
    proc = subprocess.run([sys.executable, "-c", head + CHILD], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/zero_tables.py CHECKOUT_A CHECKOUT_B", file=sys.stderr)
        return 2
    a, b = run(argv[0]), run(argv[1])
    sys.path.insert(0, str(Path(argv[1]).resolve() / "src"))
    from hardyz import DEFAULT_CONTEXT
    tol = DEFAULT_CONTEXT.refine_tol
    differ = False
    print("table      zeros A/B   advisory  max|dgamma|  max noise   brackets A/B  verdict")
    for key, ta in a["tables"].items():
        tb = b["tables"][key]
        ga, gb, noise = np.array(ta["gammas"]), np.array(tb["gammas"]), np.array(tb["noise"])
        same_adv = ta["advisory"] == tb["advisory"]
        verdict = "ok"
        if ga.size != gb.size:
            shift, verdict = float("nan"), "COUNT"
        else:
            d = np.abs(ga - gb)
            shift = float(d.max()) if d.size else 0.0
            quiet = noise < 0.5 * tol
            if np.any(d[quiet] > tol) or np.any(d[~quiet] > np.maximum(noise[~quiet], tol)):
                verdict = "MOVED"
        if not same_adv:
            verdict = "ADVISORY"
        if ta["bad_brackets"] or tb["bad_brackets"]:
            verdict = "BRACKETS"
        differ |= verdict != "ok"
        top = float(noise.max()) if noise.size else 0.0
        print(f"{key:<10} {ga.size:>5}/{gb.size:<5} {str(same_adv):<9} {shift:11.3e}  {top:10.3e}"
              f"  {ta['bad_brackets']:>5}/{tb['bad_brackets']:<5}  {verdict}")
    va, vb = a["violations"], b["violations"]
    print("interlace_audit violations A:", sum(va.values()), {k: v for k, v in va.items() if v})
    print("interlace_audit violations B:", sum(vb.values()), {k: v for k, v in vb.items() if v})
    differ |= va != vb
    return int(differ)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
