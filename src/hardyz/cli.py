"""Command-line interface.

Subcommands map one-to-one onto the library operations:

  catalog    list built-in data as JSON
  eval       Z^(k)(t) for --t, or the chain value F_k(s) for --s
  zeros      scan a t-range and write the zero table (CSV or JSON)
  interlace  gap audit of Z^(k+1) zeros between Z^(k) zeros (JSON)
  count      on-line count vs theta/pi + S(T) (JSON)
  contour    argument-principle count in a rectangle (prints the integer)
  mirror     mirrored zero-sum check of d/dt (Z^(k+1)/Z^(k)) (JSON)
  sample     tabulate (t, Z^(k)(t)) on a uniform grid (CSV or JSON)

Exit codes: 0 success; 2 validation or domain problems (also argparse usage
errors); 3 numerically inconclusive results (contour winding off an
integer, argument tracking underflow).

Evaluation policy comes from an optional --config file of `key = value`
lines (EvalContext field names) overridden by repeatable --set key=value
flags.  All numbers print with 15 significant digits and files use LF line
endings, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .catalog import builtin, catalog_listing, coefficients
from .chain import chain_value, z_derivative, z_grid
from .context import DEFAULT_CONTEXT, EvalContext
from .errors import (ContextError, HardyZError, InconclusiveContourError,
                     TrackingError)
from .fmtio import fmt15, fmt15_complex, to_json
from .zerolab import (Rectangle, contour_count, count_compare, interlace_audit,
                      mirror_sum_check, scan_zeros)


def _parse_kv(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise ContextError(f"expected key=value, got {text!r}")
    key, _, val = text.partition("=")
    return key.strip(), val.strip()


def _coerce(key: str, val: str):
    try:
        return int(val) if key in ("em_cutoff", "em_bernoulli") else float(val)
    except ValueError:
        raise ContextError(f"{key}: cannot parse {val!r} as a number") from None


def _build_context(config_path: str | None, overrides: list[str]) -> EvalContext:
    fields_map: dict[str, object] = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="ascii") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ContextError(f"cannot read config file: {exc}") from None
        for raw in lines:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, val = _parse_kv(line)
            fields_map[key] = _coerce(key, val)
    for item in overrides or []:
        key, val = _parse_kv(item)
        fields_map[key] = _coerce(key, val)
    return DEFAULT_CONTEXT.with_overrides(**fields_map) if fields_map else DEFAULT_CONTEXT


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--datum", required=True, help="catalog name (zeta, chi3, chi4, chi5, delta)")
    p.add_argument("--k", type=int, default=0, help="derivative order (default 0)")
    p.add_argument("--config", help="evaluation policy file of key = value lines")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one EvalContext field (repeatable)")
    p.add_argument("--experimental", action="store_true",
                   help="allow experimental catalog entries (delta)")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, shape: str) -> list[float]:
    """The comma-separated numbers of text, as many as shape names."""
    parts = text.split(",")
    try:
        if len(parts) == shape.count(",") + 1:
            return [float(x) for x in parts]
    except ValueError:
        pass
    raise ContextError(f"expected {shape}, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="hardyz",
                                  description="Hardy Z-function derivative chains for Selberg-class data")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in data")
    p.add_argument("--experimental", action="store_true")

    p = sub.add_parser("eval", help="evaluate Z^(k)(t) or the chain value F_k(s)")
    _add_common(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--t", type=float, help="point on the critical line")
    grp.add_argument("--s", metavar="RE,IM", help="complex point")

    p = sub.add_parser("zeros", help="scan for zeros of Z^(k)")
    _add_common(p)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("interlace", help="audit interlacing of Z^(k) and Z^(k+1) zeros")
    _add_common(p)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("count", help="compare the on-line count with theta/pi + S(T)")
    _add_common(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("contour", help="argument-principle zero count in a rectangle")
    _add_common(p)
    p.add_argument("--selector", choices=("chain", "coeff"), default="chain",
                   help="count zeros of F_k (chain) or f_k (coeff)")
    p.add_argument("--rect", required=True, metavar="SMIN,SMAX,TMIN,TMAX",
                   help="rectangle corners; use --rect=-0.5,1.5,10,32 when SMIN is negative")

    p = sub.add_parser("mirror", help="mirror-sum check of d/dt (Z^(k+1)/Z^(k))")
    _add_common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--budget", type=float, default=10.0, help="pass threshold for the fitted constant")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("sample", help="tabulate (t, Z^(k)(t)) on a uniform grid")
    _add_common(p)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    return top


def _run(args: argparse.Namespace) -> None:
    if args.command == "catalog":
        _emit(to_json(catalog_listing(experimental=args.experimental)) + "\n", None)
        return

    ctx = _build_context(args.config, args.set)
    datum = builtin(args.datum, experimental=args.experimental)

    if args.command == "eval":
        if args.t is not None:
            r = z_derivative(datum, args.t, args.k, ctx)
            _emit(fmt15(r.value) + "\n", None)
        else:
            cv = chain_value(datum, complex(*_parse_floats(args.s, "RE,IM")), args.k, ctx)
            payload = {
                "s": fmt15_complex(cv.s),
                "k": cv.k,
                "coeff": fmt15_complex(cv.coeff),
                "value": fmt15_complex(cv.value),
                "lead_ratio": None if cv.lead_ratio is None else fmt15_complex(cv.lead_ratio),
                "tail_ratio": None if cv.tail_ratio is None else fmt15_complex(cv.tail_ratio),
                "est_error": cv.est_error,
            }
            _emit(to_json(payload) + "\n", None)
        return

    if args.command == "zeros":
        table = scan_zeros(datum, args.k, args.t0, args.t1, ctx)
        text = table.to_csv_text() if args.format == "csv" else to_json(table.to_jsonable()) + "\n"
        _emit(text, args.out)
        return

    if args.command == "interlace":
        rep = interlace_audit(datum, args.k, args.t0, args.t1, ctx)
        _emit(to_json(rep.to_jsonable()) + "\n", args.out)
        return

    if args.command == "count":
        rep = count_compare(datum, args.k, args.T, ctx)
        _emit(to_json(rep.to_jsonable()) + "\n", args.out)
        return

    if args.command == "contour":
        rect = Rectangle(*_parse_floats(args.rect, "SMIN,SMAX,TMIN,TMAX"))
        n = contour_count(datum, args.selector, args.k, rect, ctx)
        _emit(str(n) + "\n", None)
        return

    if args.command == "mirror":
        rep = mirror_sum_check(datum, args.k, args.t, args.window, ctx, c_budget=args.budget)
        _emit(to_json(rep.to_jsonable()) + "\n", args.out)
        return

    if args.command == "sample":
        span = (args.t1 - args.t0) / args.step if args.step > 0 else math.nan
        n_steps = int(round(span)) if math.isfinite(span) else 0
        if n_steps < 1:
            raise ContextError("sample needs a positive --step and at least two grid points")
        ts = args.t0 + args.step * np.arange(n_steps + 1)
        vals, _ = z_grid(datum, ts, args.k, ctx)
        if args.format == "csv":
            lines = ["t,z"] + [f"{fmt15(t)},{fmt15(v)}" for t, v in zip(ts, vals)]
            _emit("\n".join(lines) + "\n", args.out)
        else:
            _emit(to_json([{"t": float(t), "z": float(v)} for t, v in zip(ts, vals)]) + "\n", args.out)
        return

    raise HardyZError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except (InconclusiveContourError, TrackingError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except HardyZError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
