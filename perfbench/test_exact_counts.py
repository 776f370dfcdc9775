"""Exact-count tests of the benchmark's generator and tracer.

    python3 -m pytest -q perfbench/test_exact_counts.py

Traced passes run in fresh interpreters through run.worker, as in a
benchmark run, so in-process caches never carry over between them.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hardyz as hz  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

SEED = 3
# two zeros sessions, one round of tabulate and of count
PREFIX = {"zeros": 6, "tabulate": wl.round_ops("tabulate"), "count": wl.round_ops("count")}
EXACT = ("specfun.hurwitz_zeta.point_terms", "evaluator.l_derivs_grid.circle_points",
         "zerolab.scan.points", "zerolab.scan_zeros.cache_hits")


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [run.worker(w, SEED, "--ops", str(n), trace=1, check=0) for _ in range(2)]
            for w, n in PREFIX.items()}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_operations(workload):
    ops = [wl.make_round(workload, SEED, r) for r in range(3)]
    assert all(len(batch) == wl.round_ops(workload) for batch in ops)
    assert ops == [wl.make_round(workload, SEED, r) for r in range(3)]
    assert ops != [wl.make_round(workload, SEED + 1, r) for r in range(3)]


def test_zeros_windows_never_overlap():
    rounds = 1 << wl.ZEROS_BITS
    windows = {}
    for r in range(rounds):
        for op in wl.make_round("zeros", SEED, r):
            windows.setdefault(op[1], set()).add((op[3], op[4]))
    assert wl.make_round("zeros", SEED, rounds) == []
    for spans in windows.values():
        spans = sorted(spans)
        assert len(spans) == rounds
        assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_two_traced_runs_count_the_same(traced_twice, workload):
    first, second = traced_twice[workload]
    assert first["digest"] == second["digest"]
    assert not first["errors"] and not second["errors"]
    assert list(first["layers"]) == [name for name, _ in LAYER_METRICS]
    for name in EXACT:
        assert first["layers"][name] == second["layers"][name], name


def test_circle_has_64_nodes_per_point(traced_twice):
    with Tracer() as tracer:
        hz.z_grid(hz.builtin("zeta"), np.linspace(20.0, 30.0, 7), 1)
    m = layer_metrics(tracer.spans)
    assert m["evaluator.l_derivs_grid.points"] == 7
    assert m["evaluator.l_derivs_grid.circle_points"] == 64 * 7

    layers = traced_twice["zeros"][0]["layers"]
    assert layers["evaluator.l_derivs_grid.circle_centres"] > 0
    assert layers["evaluator.l_derivs_grid.circle_points"] == 64 * layers["evaluator.l_derivs_grid.circle_centres"]


def test_scan_cache_hits(traced_twice):
    zeros = traced_twice["zeros"][0]["layers"]
    assert zeros["zerolab.scan_zeros.calls"] == 3 * zeros["zerolab.scan_zeros.cache_hits"] > 0
    for workload in ("tabulate", "count"):
        assert traced_twice[workload][0]["layers"]["zerolab.scan_zeros.cache_hits"] == 0
    assert traced_twice["count"][0]["layers"]["zerolab.scan_zeros.calls"] > 0


def test_tracer_restores_every_binding():
    modules = [m for n, m in sys.modules.items() if n == "hardyz" or n.startswith("hardyz.")]
    before = [dict(vars(m)) for m in modules]
    with Tracer():
        assert hz.z_grid is not before[modules.index(hz)]["z_grid"]
    assert [dict(vars(m)) for m in modules] == before
