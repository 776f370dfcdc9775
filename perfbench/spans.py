"""Span tracing of hardyz's layers from outside the package.

`Tracer.install()` wraps each traced public function and rebinds the
wrapper in every `hardyz.*` module namespace that holds the original, so
calls between modules (and within one, through its globals) pass through
the wrapper.  `uninstall()` restores every binding.  No hardyz source is
changed; with the tracer uninstalled the package runs untouched.

A span records (name, parent span, op index, start, end, points, extra).
Spans are kept in memory and reduced to layer metrics by `layer_metrics`.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

_NAME, _PARENT, _OP, _START, _END, _POINTS, _EXTRA = range(7)


def _size(x) -> int:
    return int(np.size(x))


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _hurwitz_pre(args, kwargs):
    # point_terms is computed the way hurwitz_zeta sizes its direct sum:
    # points x ctx.em_terms(max |Im s|)
    from hardyz.context import DEFAULT_CONTEXT

    s = np.asarray(args[0] if args else kwargs["s"], dtype=np.complex128)
    ctx = _arg(args, kwargs, 3, "ctx") or DEFAULT_CONTEXT
    im_max = float(np.max(np.abs(s.imag))) if s.size else 0.0
    return s.size, s.size * ctx.em_terms(im_max)


def _points_at(pos, name):
    def pre(args, kwargs):
        return _size(_arg(args, kwargs, pos, name)), None
    return pre


def _l_derivs_pre(args, kwargs):
    return _size(_arg(args, kwargs, 1, "s_arr")), int(_arg(args, kwargs, 2, "j_max"))


def _no_points(args, kwargs):
    return 0, None


def _zeros_found(span, result):
    span[_EXTRA] = len(result.gammas)


# (module, function, argument measure, result hook); the span name is
# "<module>.<function>"
TRACED = (
    ("specfun", "hurwitz_zeta", _hurwitz_pre, None),
    ("specfun", "polygamma", _points_at(1, "z"), None),
    ("specfun", "log_gamma", _points_at(0, "z"), None),
    ("evaluator", "l_value_grid", _points_at(1, "s_arr"), None),
    ("evaluator", "l_derivs_grid", _l_derivs_pre, None),
    ("gamma_factor", "fe_logderiv_grid", _points_at(1, "s_arr"), None),
    ("gamma_factor", "theta_grid", _points_at(1, "t_arr"), None),
    ("chain", "coeff_stack_grid", _points_at(1, "s_arr"), None),
    ("chain", "chain_grid", _points_at(1, "s_arr"), None),
    ("chain", "z_grid", _points_at(1, "t_arr"), None),
    ("zerolab", "scan_zeros", _no_points, _zeros_found),
    ("zerolab", "interlace_audit", _no_points, None),
    ("zerolab", "argument_S", _no_points, None),
    ("zerolab", "count_compare", _no_points, None),
    ("zerolab", "contour_count", _no_points, None),
)


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, pre, post):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points, extra = pre(args, kwargs)
            span = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, points, extra]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(span, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hardyz" or n.startswith("hardyz."))]
        for mod_name, fn_name, pre, post in TRACED:
            original = getattr(sys.modules["hardyz." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, pre, post)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# every per-layer metric, in report order, with the direction that is better
LAYER_METRICS = (
    ("specfun.hurwitz_zeta.calls", "lower"),
    ("specfun.hurwitz_zeta.points", "lower"),
    ("specfun.hurwitz_zeta.point_terms", "lower"),
    ("specfun.hurwitz_zeta.self_s", "lower"),
    ("specfun.polygamma.self_s", "lower"),
    ("specfun.log_gamma.self_s", "lower"),
    ("evaluator.l_value_grid.calls", "lower"),
    ("evaluator.l_value_grid.points", "lower"),
    ("evaluator.l_value_grid.self_s", "lower"),
    ("evaluator.l_derivs_grid.calls", "lower"),
    ("evaluator.l_derivs_grid.points", "lower"),
    ("evaluator.l_derivs_grid.circle_points", "lower"),
    ("evaluator.l_derivs_grid.circle_centres", "lower"),
    ("evaluator.l_derivs_grid.self_s", "lower"),
    ("gamma_factor.fe_logderiv_grid.self_s", "lower"),
    ("gamma_factor.theta_grid.self_s", "lower"),
    ("chain.chain_grid.calls", "lower"),
    ("chain.chain_grid.points", "lower"),
    ("chain.chain_grid.batch_p50", "higher"),
    ("chain.chain_grid.self_s", "lower"),
    ("chain.coeff_stack_grid.self_s", "lower"),
    ("chain.z_grid.calls", "lower"),
    ("chain.z_grid.points", "lower"),
    ("chain.z_grid.self_s", "lower"),
    ("zerolab.scan_zeros.calls", "lower"),
    ("zerolab.scan_zeros.cache_hits", "higher"),
    ("zerolab.scan_zeros.self_s", "lower"),
    ("zerolab.scan.points", "lower"),
    ("zerolab.scan.z_grid_calls", "lower"),
    ("zerolab.scan.points_per_zero", "lower"),
    ("zerolab.argument_S.calls", "lower"),
    ("zerolab.argument_S.steps", "lower"),
    ("zerolab.argument_S.self_s", "lower"),
    ("zerolab.contour_count.calls", "lower"),
    ("zerolab.contour_count.nodes", "lower"),
    ("zerolab.contour_count.self_s", "lower"),
    ("zerolab.interlace_audit.self_s", "lower"),
    ("zerolab.count_compare.self_s", "lower"),
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".batch_p50"):
        return "points"
    if metric.endswith(".points_per_zero"):
        return "points/zero"
    return "count"


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce spans to the per-layer metrics named in BENCHMARK.json."""
    children: list[list[int]] = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp[_PARENT] >= 0:
            children[sp[_PARENT]].append(i)

    def dur(sp):
        return sp[_END] - sp[_START]

    def kids(i, name):
        return [spans[c] for c in children[i] if spans[c][_NAME] == name]

    calls: dict[str, int] = {}
    points: dict[str, int] = {}
    self_s: dict[str, float] = {}
    by_name: dict[str, list[int]] = {}
    for i, sp in enumerate(spans):
        name = sp[_NAME]
        by_name.setdefault(name, []).append(i)
        calls[name] = calls.get(name, 0) + 1
        points[name] = points.get(name, 0) + sp[_POINTS]
        self_s[name] = self_s.get(name, 0.0) + dur(sp) - sum(dur(spans[c]) for c in children[i])

    def each(name):
        return [(i, spans[i]) for i in by_name.get(name, [])]

    circle_points = circle_centres = 0
    for i, sp in each("evaluator.l_derivs_grid"):
        circle_points += sum(c[_POINTS] for c in kids(i, "evaluator.l_value_grid")) - sp[_POINTS]
        if sp[_EXTRA] >= 1:
            circle_centres += sp[_POINTS]

    # a scan that made no z_grid call was served from zerolab's cache
    cache_hits = scan_points = scan_z_calls = zeros_scanned = 0
    for i, sp in each("zerolab.scan_zeros"):
        z = kids(i, "chain.z_grid")
        if not z:
            cache_hits += 1
            continue
        scan_points += sum(c[_POINTS] for c in z)
        scan_z_calls += len(z)
        zeros_scanned += sp[_EXTRA]

    # one phase step of argument tracking is one 1-point chain_grid call
    steps = sum(1 for i, _ in each("zerolab.argument_S")
                for c in kids(i, "chain.chain_grid") if c[_POINTS] == 1)
    nodes = sum(c[_POINTS] for i, _ in each("zerolab.contour_count")
                for c in kids(i, "chain.chain_grid"))
    batches = [spans[i][_POINTS] for i in by_name.get("chain.chain_grid", [])]

    values = {
        "specfun.hurwitz_zeta.point_terms": sum(spans[i][_EXTRA] for i in by_name.get("specfun.hurwitz_zeta", [])),
        "evaluator.l_derivs_grid.circle_points": circle_points,
        "evaluator.l_derivs_grid.circle_centres": circle_centres,
        "chain.chain_grid.batch_p50": statistics.median(batches) if batches else 0,
        "zerolab.scan_zeros.cache_hits": cache_hits,
        "zerolab.scan.points": scan_points,
        "zerolab.scan.z_grid_calls": scan_z_calls,
        "zerolab.scan.points_per_zero": scan_points / zeros_scanned if zeros_scanned else 0.0,
        "zerolab.argument_S.steps": steps,
        "zerolab.contour_count.nodes": nodes,
    }
    per_span = {"calls": calls, "points": points, "self_s": self_s}
    out = {}
    for metric, _ in LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        out[metric] = values[metric] if metric in values else per_span[stat].get(span, 0)
    return out
