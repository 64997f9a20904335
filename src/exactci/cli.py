"""Command-line interface.

Subcommands ``binomial``, ``poisson`` and ``oddsratio`` report confidence
intervals for one observed outcome; with ``--curve`` they instead emit the
two-sided p-value curve as CSV. ``curve`` is the standalone spelling of the
same emission and ``audit`` writes an exact coverage table.

Exit status: 0 on success, 2 for argument errors, 1 for computation errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .bounds import ConfidenceInterval
from .coverage import _csv_rows, _interval, exact_coverage, write_csv
from .errors import (BadAlpha, BadDelta, BadGrid, BadN, EmptySupport, ExactCIError,
                     OutOfSupport)
from .models import TwoByTwoTable, make_binomial, make_odds_ratio, make_poisson, point_estimate
from .sterne import DEFAULT_DELTA, _jumps_between, jump_limits, sterne_pvalue

_ARGUMENT_ERRORS = (BadAlpha, BadDelta, BadGrid, BadN, EmptySupport, OutOfSupport)

METHOD_CHOICES = ("sterne", "cp", "lower", "upper", "all")

# each model's flags for one outcome, then for an audit
_MODEL_ARGS = {"binomial": (("n", "x"), ("n",)), "poisson": (("x",), ()),
               "oddsratio": (("y1", "n1", "y2", "n2"), ("n1", "n2", "s"))}
_ARG_HELP = {"x": "observed count", "y1": "events in group 1", "y2": "events in group 2",
             "s": "conditioning total y1 + y2"}


def _fmt(v: float) -> str:
    if v is None:
        return "-"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.4f}"


def _add_level(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.05, help="error level (default 0.05)")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                   help="Sterne endpoint precision (default 1e-8)")


def _add_curve(p: argparse.ArgumentParser, required: bool) -> None:
    if not required:
        p.add_argument("--curve", action="store_true",
                       help="emit the p-value curve as CSV instead of intervals")
    p.add_argument("--from", dest="curve_from", type=float, default=None,
                   help="curve start, natural scale")
    p.add_argument("--to", dest="curve_to", type=float, default=None,
                   help="curve end, natural scale")
    p.add_argument("--points", type=int, default=500, help="curve sample count")


def _add_model_args(p: argparse.ArgumentParser, kinds, audit: bool, required: bool) -> None:
    """One integer flag per outcome (or audit) argument of ``kinds``, each declared once."""
    for name in dict.fromkeys(a for kind in kinds for a in _MODEL_ARGS[kind][audit]):
        p.add_argument(f"--{name}", type=int, required=required, help=_ARG_HELP.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactci",
        description="Exact confidence intervals for binomial, Poisson and odds-ratio data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, helptext in (
        ("binomial", "binomial success probability"),
        ("poisson", "Poisson mean"),
        ("oddsratio", "odds ratio of a 2x2 table"),
    ):
        p = sub.add_parser(kind, help=helptext)
        _add_model_args(p, [kind], audit=False, required=True)
        _add_level(p)
        p.add_argument("--method", choices=METHOD_CHOICES, default="all")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        _add_curve(p, required=False)

    p = sub.add_parser("curve", help="two-sided p-value curve as CSV")
    p.add_argument("--model", choices=tuple(_MODEL_ARGS), required=True)
    _add_model_args(p, _MODEL_ARGS, audit=False, required=False)
    _add_curve(p, required=True)
    _add_level(p)

    p = sub.add_parser("audit", help="exact coverage table as CSV")
    p.add_argument("--model", choices=tuple(_MODEL_ARGS), required=True)
    _add_model_args(p, _MODEL_ARGS, audit=True, required=False)
    p.add_argument("--method", choices=METHOD_CHOICES[:-1], default="sterne")
    _add_level(p)
    p.add_argument("--from", dest="grid_from", type=float, required=True,
                   help="grid start, natural scale")
    p.add_argument("--to", dest="grid_to", type=float, required=True,
                   help="grid end, natural scale")
    p.add_argument("--points", type=int, default=501)
    return parser


def _build_model(args) -> tuple:
    """The model named on the command line and the observed x (None for an audit), unchecked."""
    audit = args.command == "audit"
    kind = args.model if args.command in ("curve", "audit") else args.command
    missing = [f"--{a}" for a in _MODEL_ARGS[kind][audit] if getattr(args, a) is None]
    if missing:  # only curve and audit leave model flags to this check
        raise BadN(f"{args.command} --model {kind} needs {' '.join(missing)}")
    x = None if audit else getattr(args, "x", None)
    if kind == "binomial":
        model = make_binomial(args.n)
    elif kind == "poisson":
        model = make_poisson()
    elif audit:
        model = make_odds_ratio(args.n1, args.n2, args.s)
    else:
        table = TwoByTwoTable(y1=args.y1, n1=args.n1, y2=args.y2, n2=args.n2)
        model, x = make_odds_ratio(table.n1, table.n2, table.s), table.x
    return model, x


def _interval_record(model, x, ci) -> dict:
    return {
        "model": {"kind": model.kind, **model.params},
        "x": x,
        "alpha": ci.alpha,
        "method": ci.method,
        "theta": [ci.theta_lo, ci.theta_hi],
        "natural": [ci.natural_lo, ci.natural_hi],
        "endpoint_pvalues": [ci.pvalue_lo, ci.pvalue_hi],
        "delta": ci.delta,
    }


def _print_intervals(model, x, args, out=sys.stdout) -> None:
    methods = METHOD_CHOICES[:-1] if args.method == "all" else (args.method,)
    cis = [_interval(model, m, x, args.alpha, args.delta) for m in methods]
    if args.format == "json":
        records = [_interval_record(model, x, ci) for ci in cis]
        out.write(json.dumps(records[0] if len(records) == 1 else records, indent=2))
        out.write("\n")
        return
    if args.format == "csv":
        names = [f.name for f in dataclasses.fields(ConfidenceInterval)]
        _csv_rows([names] + [[getattr(ci, name) for name in names] for ci in cis], out)
        return
    label = model.natural_label
    head = [f"model: {model.kind}"]
    head += [f"{k}={v}" for k, v in model.params.items()]
    head += [f"x={x}", f"alpha={args.alpha:g}"]
    out.write(" ".join(head) + "\n")
    est = point_estimate(model, x)
    out.write(f"estimate {label} = {_fmt(est)}\n")
    for ci in cis:
        out.write(
            f"{ci.method:<16} {label} [{_fmt(ci.natural_lo)}, {_fmt(ci.natural_hi)}]"
            f"   theta [{_fmt(ci.theta_lo)}, {_fmt(ci.theta_hi)}]"
            f"   endpoint p [{_fmt(ci.pvalue_lo)}, {_fmt(ci.pvalue_hi)}]\n"
        )


def _natural_grid(start, end, points: int, what: str) -> list[float]:
    """``points`` evenly spaced natural values from ``start`` to ``end``; the last is
    ``end`` itself, which the spaced formula can miss by an ulp, past the natural range."""
    if start is None or end is None:
        raise BadGrid(f"{what} needs --from and --to")
    if points < 2:
        raise BadGrid(f"{what} needs at least 2 points")
    if not start < end:
        raise BadGrid(f"{what} needs --from < --to")
    if not math.isfinite(end - start):
        raise BadGrid(f"{what} needs finite --from and --to")
    return [start + (end - start) * i / (points - 1) for i in range(points - 1)] + [end]


def _thetas(model, nats) -> list[float]:
    """theta for each natural value; a value off the natural range is a BadGrid."""
    try:
        return [model.from_natural(v) for v in nats]
    except ValueError as e:
        raise BadGrid(str(e)) from None


def _print_curve(model, x, args, out=sys.stdout) -> None:
    nats = _natural_grid(args.curve_from, args.curve_to, args.points, "curve")
    t_from, t_to = _thetas(model, [args.curve_from, args.curve_to])
    rows = []
    for nat, t in zip(nats, _thetas(model, nats)):
        rows.append((nat, sterne_pvalue(model, x, t).value, "sample"))
    for k in _jumps_between(model.family, x, t_from, t_to):
        t, left, right = jump_limits(model, x, k)
        nat = model.to_natural(t)
        rows.append((nat, left, "left"))
        rows.append((nat, right, "right"))
    rows.sort(key=lambda r: (r[0], r[2] == "right"))
    _csv_rows([("natural_param", "pvalue", "side")] + rows, out)


def _print_audit(model, args, out=sys.stdout) -> None:
    nats = _natural_grid(args.grid_from, args.grid_to, args.points, "audit")
    grid = _thetas(model, nats)
    report = exact_coverage(model, args.method, args.alpha, grid, args.delta)
    write_csv(report, out)


_parser = None  # built on first use; parse_args does not change it


def run(argv=None, out=sys.stdout) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        model, x = _build_model(args)
        if args.command == "audit":
            _print_audit(model, args, out)
        elif args.command == "curve" or getattr(args, "curve", False):
            _print_curve(model, x, args, out)
        else:
            _print_intervals(model, x, args, out)
        return 0
    except ExactCIError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2 if isinstance(e, _ARGUMENT_ERRORS) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
