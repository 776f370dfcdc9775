"""hardyz benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {zeros,tabulate,count} --seed N
                             --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  Every pass over the workload runs in a fresh interpreter
(perfbench/worker.py), one operation at a time with default `jobs` and BLAS
threads capped at nproc.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0  end-to-end metrics: setup_s (median of COLD_STARTS cold starts),
           then a timed pass of whole rounds lasting at least S seconds at
           reference speed (see worker.py).
--trace 1  per-layer metrics: the first TRACE_ROUNDS rounds run once
           untraced and once traced; the outputs of the two must be equal,
           and the difference of their reference-speed times is the
           tracing overhead.

Outputs are checked against independent oracles outside the timed interval;
an operation that raises or fails its check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import unit  # noqa: E402
from worker import CAL_REF_S  # noqa: E402

COLD_STARTS = 9
TRACE_ROUNDS = {"zeros": 2, "tabulate": 2, "count": 2}
# a run must end within 180 s: one timed pass, or two traced-run passes
TIMED_TIMEOUT_S = 150
TRACE_TIMEOUT_S = 80

# setup_s: a fresh interpreter imports hardyz, builds the workload's data
# and evaluates Z at one point, as every CLI call does
COLD_START = (
    "import sys; sys.path.insert(0, sys.argv[1]); import hardyz; "
    "d = [hardyz.builtin(n) for n in sys.argv[2:]]; hardyz.z_grid(d[0], [100.0], 0)"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    n = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    return env


def cold_start_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START, str(ROOT / "src"), *wl.DATA],
                   env=child_env(), check=True, timeout=60)
    return time.perf_counter() - start


def worker(workload: str, seed: int, *limit: str, trace: int = 0, check: int = 1,
           timeout: float = TRACE_TIMEOUT_S) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *limit, "--trace", str(trace), "--check", str(check)]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                          check=True, timeout=timeout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics; from
    one pass to the next it moves less than the single order statistic.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples above it."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0
    p = (n - 10) / n
    return quantile(latencies, p), 100.0 * p


def machine() -> str:
    import numpy

    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, mpmath {mpmath.__version__}")


def end_to_end(args) -> tuple[dict, dict]:
    setups = [cold_start_s() for _ in range(COLD_STARTS)]
    res = worker(args.workload, args.seed, "--seconds", str(args.seconds), timeout=TIMED_TIMEOUT_S)
    n = res["ops"]
    ref, raw = res["ref_latencies_s"], res["latencies_s"]
    tail_s, tail_pct = tail(ref)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / sum(ref), "1/s"),
        "op_p50_s": (quantile(ref, 0.5), "s"),
        "op_tail_s": (tail_s, "s"),
    }
    raw_values = {"ops_per_s": n / sum(raw), "op_p50_s": quantile(raw, 0.5),
                  "op_tail_s": tail(raw)[0]}
    speed = CAL_REF_S / statistics.median(res["calibration_s"])
    print(f"workload {args.workload}  seed {args.seed}  {res['rounds']} rounds, "
          f"{n} ops in {sum(raw):.3f} s (closed loop, 1 client); host at {speed:.3f} "
          f"of reference speed")
    for name, (value, u) in metrics.items():
        note = ""
        if name in raw_values:
            note = f"  at reference speed; {raw_values[name]:.6g} as timed"
        if name == "setup_s":
            note = f"  median of {COLD_STARTS} cold starts, as timed"
        if name == "op_tail_s":
            note += f"; p{tail_pct:.1f} of {n} ops, {min(n, 10)} above it"
        print(f"  {name:<14}{value:12.6g} {u}{note}")
    # printed, not bounded in BENCHMARK.json: see NOTES.md
    fails = len(res["errors"])
    print(f"  {'fail_frac':<14}{fails / n:12.6g} ratio  {fails} of {n}")
    print(f"  {'peak_rss_mb':<14}{res['peak_rss_mb']:12.6g} MB  timed pass, before the checks")
    if args.workload == "zeros":
        print(f"  {'zeros_per_s':<14}{res['zeros'] / sum(ref):12.6g} 1/s  zeros of Z^(k) and Z^(k+1)")
    if args.workload == "tabulate":
        print(f"  {'points_per_s':<14}{res['points'] / sum(ref):12.6g} 1/s  Z values returned")
    return res, metrics


def per_layer(args) -> tuple[dict, dict]:
    n = wl.round_ops(args.workload) * TRACE_ROUNDS[args.workload]
    plain = worker(args.workload, args.seed, "--ops", str(n))
    traced = worker(args.workload, args.seed, "--ops", str(n), trace=1, check=0)
    same = plain["digest"] == traced["digest"] and plain["ops"] == traced["ops"]
    plain_s, traced_s = sum(plain["ref_latencies_s"]), sum(traced["ref_latencies_s"])
    overhead = traced_s - plain_s
    layers = dict(traced["layers"], **{"trace.overhead_s": overhead})
    metrics = {k: (v, unit(k)) for k, v in layers.items()}
    print(f"workload {args.workload}  seed {args.seed}  traced {plain['ops']} ops "
          f"({TRACE_ROUNDS[args.workload]} rounds)")
    print(f"  at reference speed: untraced {plain_s:.4f} s, traced {traced_s:.4f} s, "
          f"tracing overhead {overhead:+.4f} s ({100 * overhead / plain_s:+.1f}%)")
    print(f"  traced outputs {'equal' if same else 'DIFFER FROM'} untraced outputs")
    for name, (value, u) in metrics.items():
        print(f"  {name:<42}{value:14.6g} {u}")
    res = dict(plain, errors=dict(plain["errors"], **traced["errors"]))
    if not same:
        res["errors"]["traced"] = "traced outputs differ from untraced outputs"
    return res, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hardyz" / "__init__.py").is_file():
        print(f"no hardyz source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    res, metrics = (per_layer if args.trace else end_to_end)(args)
    print(f"  machine: {machine()}")
    for i, reason in res["errors"].items():
        print(f"  failed op {i}: {reason}")
    failed = len(res["errors"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["ops"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
