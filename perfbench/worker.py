"""One measured pass over a workload, in a fresh interpreter.

Started by run.py, never imported by it: every pass begins with empty
in-process caches (zerolab's scan cache, the builtin lru_cache, the tau
cache).  Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload W --seed N (--seconds S | --ops N)
                                [--trace 0|1] [--check 0|1]

--seconds  runs whole rounds, one operation after another (a closed loop
           with one client), until S seconds of operations have elapsed at
           reference speed (see below) or the workload is exhausted
--ops      runs exactly the first N operations

The host's speed drifts by several percent over tens of seconds, so a fixed
numpy kernel that does not touch hardyz (`calibrate`) is timed before every
operation and once after the last, outside the timed interval.  Each
operation's latency is also reported scaled to a reference speed: multiplied
by CAL_REF_S over the median kernel time of the five samples around it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

# the calibration kernel: complex exponentials of an outer product, the
# same kind of work as hardyz's Euler-Maclaurin sums.  CAL_REF_S is its
# median time on the reference machine (2 cores, Python 3.11, numpy 2.4).
_CAL_S = (0.5 + 1j * np.linspace(10.0, 300.0, 1500))[:, None]
_CAL_LOGS = np.log(np.arange(1.0, 51.0))[None, :]
CAL_REF_S = 0.003
CAL_REPEATS = 3


def calibrate() -> float:
    """Median time of CAL_REPEATS runs of the calibration kernel."""
    times = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        np.exp(-_CAL_S * _CAL_LOGS).sum()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def reference_latencies(lat: list[float], cal: list[float]) -> list[float]:
    """Latencies scaled to the reference speed; cal has one sample more than lat."""
    return [t * CAL_REF_S / float(np.median(cal[max(0, i - 2):i + 3])) for i, t in enumerate(lat)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--ops", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    args = ap.parse_args(argv)

    import hardyz as hz

    if Path(hz.__file__).resolve().parent != ROOT / "src" / "hardyz":
        print(f"hardyz imported from {hz.__file__}, not from this checkout", file=sys.stderr)
        return 2
    data = {name: hz.builtin(name) for name in wl.DATA}

    tracer = Tracer() if args.trace else None
    ops, outs, lat, cal, errors = [], [], [], [], {}
    elapsed = 0.0  # at reference speed, so the rounds run do not depend on the host's speed
    r = 0
    if tracer:
        tracer.install()
    try:
        while True:
            if args.ops is not None and len(ops) >= args.ops:
                break
            if args.seconds is not None and elapsed >= args.seconds:
                break
            batch = wl.make_round(args.workload, args.seed, r)  # not timed
            if not batch:
                break
            r += 1
            if args.ops is not None:
                batch = batch[:args.ops - len(ops)]
            for op in batch:
                cal.append(calibrate())
                if tracer:
                    tracer.op = len(ops)
                start = time.perf_counter()
                try:
                    out = wl.run_op(hz, data, op)
                except Exception as exc:  # a failed operation is counted, not fatal
                    out = None
                    errors[len(ops)] = f"{type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
                dt = time.perf_counter() - start
                elapsed += dt * CAL_REF_S / cal[-1]
                lat.append(dt)
                ops.append(op)
                outs.append(out)
        cal.append(calibrate())
    finally:
        if tracer:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256()
    for op, out in zip(ops, outs):
        digest.update(repr(op).encode())
        digest.update(b"-" if out is None else wl.fingerprint(op, out).encode())

    zeros = points = 0
    if args.check:
        check = wl.Checker(hz, data, args.seed)
        for i, (op, out) in enumerate(zip(ops, outs)):
            if out is None:
                continue
            reason = check(op, out)
            if reason is not None:
                errors[i] = reason
                print(f"check failed for {op}: {reason}", file=sys.stderr)
            zeros += wl.returned_zeros(hz, data, op)
            points += wl.returned_points(op)

    print(json.dumps({
        "rounds": r,
        "ops": len(ops),
        "latencies_s": lat,
        "ref_latencies_s": reference_latencies(lat, cal),
        "calibration_s": cal,
        "errors": {str(i): e for i, e in sorted(errors.items())},
        "peak_rss_mb": rss_mb,
        "zeros": zeros,
        "points": points,
        "digest": digest.hexdigest(),
        "layers": layer_metrics(tracer.spans) if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
