"""Time the L-value kernel, the log Gamma walk and the on-line chain.

    python3 tools/kernel_times.py CHECKOUT [CHECKOUT ...]

runs the timings below ROUNDS times per checkout, each time in a fresh
interpreter with PYTHONPATH=CHECKOUT/src and PYTHONDONTWRITEBYTECODE=1, the
checkouts taking turns (in reverse order every other round, since a shared
host's speed drifts over seconds to minutes).  It prints one JSON object:
per checkout and per entry the CPU seconds of one call, the minimum over
the rounds of READINGS time.process_time readings of a loop of calls (the
loop length is set once per entry so a reading lasts at least
MIN_READING_S), and with two or more checkouts the ratio of each later
checkout's time to the first one's.  Each entry names the layer its time is spent in, so a gain can be
read off layer by layer; the benchmark's trace cannot show the walk, whose
specfun spans are never entered on these paths.  The entries, for zeta and
chi4:

* l_value_grid on 2000 points 1/2 + it, t evenly spaced in [300, 500], and
  on 195 circle points: 3 line centres and their 64 Cauchy nodes,
* gamma_factor._line_walk for the rows L^(0..5) on 3 heights and on 2000
  heights evenly spaced in [5, 500],
* chain._z_stack(datum, t, 3) on the 3 heights.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROUNDS = 3
READINGS = 5
MIN_READING_S = 0.2

CHILD = r"""
import json, time
import numpy as np
import hardyz
from hardyz import chain, evaluator, gamma_factor

def per_call(fn):
    start = time.process_time()
    fn()
    reps = max(1, int(MIN_READING_S / max(time.process_time() - start, 1e-6)))
    best = float("inf")
    for _ in range(READINGS):
        start = time.process_time()
        for _ in range(reps):
            fn()
        best = min(best, (time.process_time() - start) / reps)
    return best

line = 0.5 + 1j * np.linspace(300.0, 500.0, 2000)
centres = 0.5 + 1j * np.array([40.0, 200.0, 450.0])
phi = 2.0 * np.pi * np.arange(evaluator.CAUCHY_NODES) / evaluator.CAUCHY_NODES
ring = evaluator.CAUCHY_RADIUS * np.exp(1j * phi)
circle = np.concatenate([centres, (centres[None, :] + ring[:, None]).ravel()])
few, many = centres.imag, np.linspace(5.0, 500.0, 2000)
kernel = "catalog.PeriodicProvider.values (evaluator.l_value_grid)"
walk = "specfun._log_gamma_rows (gamma_factor._line_walk)"
entries = {}
for name in ("zeta", "chi4"):
    d = hardyz.builtin(name)
    for label, layer, fn in (
            ("l_value_grid 2000 line points", kernel, lambda: evaluator.l_value_grid(d, line)),
            (f"l_value_grid {circle.size} circle points", kernel,
             lambda: evaluator.l_value_grid(d, circle)),
            ("_line_walk rows 0..5, 3 heights", walk, lambda: gamma_factor._line_walk(d, few, 5)),
            ("_line_walk rows 0..5, 2000 heights", walk,
             lambda: gamma_factor._line_walk(d, many, 5)),
            ("_z_stack k = 3, 3 heights", "chain._z_stack", lambda: chain._z_stack(d, few, 3))):
        entries[f"{name} {label}"] = {"layer": layer, "s": per_call(fn)}
print(json.dumps(entries))
"""


def run(checkout: str) -> dict:
    src = Path(checkout).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    head = f"READINGS, MIN_READING_S = {READINGS!r}, {MIN_READING_S!r}\n"
    proc = subprocess.run([sys.executable, "-c", head + CHILD], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/kernel_times.py CHECKOUT [CHECKOUT ...]", file=sys.stderr)
        return 2
    rounds: list[list[dict]] = [[] for _ in argv]
    for r in range(ROUNDS):
        for i in (range(len(argv)) if r % 2 == 0 else reversed(range(len(argv)))):
            rounds[i].append(run(argv[i]))
    runs = [{key: {"layer": rs[0][key]["layer"], "s": min(x[key]["s"] for x in rs)} for key in rs[0]}
            for rs in rounds]
    out = {"checkouts": argv, "rounds": ROUNDS, "readings": READINGS, "unit": "CPU s per call",
           "entries": {}}
    for key, first in runs[0].items():
        row = {"layer": first["layer"], "s": [r[key]["s"] for r in runs]}
        if len(runs) > 1:
            row["ratio_to_first"] = [r[key]["s"] / first["s"] for r in runs[1:]]
        out["entries"][key] = row
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
