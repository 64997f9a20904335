#!/usr/bin/env python3
"""Print every output of a fixed case set, one JSON line per case.

The cases run the interval functions (Clopper-Pearson, both one-sided
intervals, Sterne), the two exact bounds, ``exact_coverage``,
``length_table`` and the command line over binomial, Poisson, odds-ratio and
three custom families, at alpha from 1e-15 to 0.9. Each line holds the case,
the repr of every output field, the name of the typed error it raised (or null)
and the number of ``LatticeFamily.distribution`` calls it made. Two
checkouts compare by diff:

    PYTHONPATH=src python scripts/output_digest.py > new.jsonl
    PYTHONPATH=../old/src python scripts/output_digest.py > old.jsonl
    diff old.jsonl new.jsonl

The package calls no BLAS, so the output does not depend on the BLAS
thread count.

It takes about 15 s on one core. ``--compare OLD NEW`` reads two such files
and prints, for each case whose line moved and each field that moved in it,
how many numbers moved and by how much relative at most, and any change of
error name, of a number to or from infinity or nan, of the text around the
numbers or of the evaluation count, then a summary per field. It exits with
status 1 when any case moved, appeared or vanished, or changed its error or
evaluation count, and 0 otherwise, so "bit-identical" is its exit status:

    python scripts/output_digest.py --compare old.jsonl new.jsonl
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import re
import sys

import numpy as np
from scipy.special import digamma, gammaln

from exactci import (ExactCIError, LatticeFamily, LatticeSupport, clopper_pearson,
                     exact_coverage, length_table, lower_bound, make_binomial, make_odds_ratio,
                     make_poisson, one_sided_interval, sterne_interval, upper_bound)
from exactci.cli import run

ALPHAS = (1e-15, 1e-6, 0.01, 0.05, 0.5, 0.9)


def _harmonic():
    return LatticeFamily(LatticeSupport(0, math.inf),
                         lambda xs: -np.asarray(xs, dtype=float)
                         + digamma(np.asarray(xs, dtype=float) + 1.0) + np.euler_gamma)


def _negative_binomial():
    return LatticeFamily(LatticeSupport(0, math.inf),
                         lambda xs: gammaln(np.asarray(xs, dtype=float) + 3.0)
                         - gammaln(np.asarray(xs, dtype=float) + 1.0))


def _two_sided():
    return LatticeFamily(LatticeSupport(-math.inf, math.inf),
                         lambda xs: -np.asarray(xs, dtype=float) ** 2 / 50)


# name: (maker, outcomes); the custom families run at alpha >= 0.01,
# where their searches stay inside the window cap
MODELS = {
    "binomial 2": (lambda: make_binomial(2), range(3)),
    "binomial 20": (lambda: make_binomial(20), range(21)),
    "binomial 1000": (lambda: make_binomial(1000), (0, 1, 7, 300, 500, 999, 1000)),
    "binomial 100000": (lambda: make_binomial(100000), (0, 10, 31000, 99999, 100000)),
    "binomial 1000000": (lambda: make_binomial(1000000), (0, 319405, 1000000)),
    "poisson": (make_poisson, (0, 1, 3, 17, 400, 96000, 977241)),
    "oddsratio 49/317/245": (lambda: make_odds_ratio(49, 317, 245), (0, 1, 20, 42, 48, 49)),
    "oddsratio 6/6/6": (lambda: make_odds_ratio(6, 6, 6), range(7)),
    "oddsratio 20000/30000/15000": (lambda: make_odds_ratio(20000, 30000, 15000),
                                    (0, 6000, 14999, 15000)),
    "harmonic": (_harmonic, (0, 1, 3)),
    "negative binomial r=3": (_negative_binomial, (0, 1, 5)),
    "two-sided": (_two_sided, (-50, -3, 0, 7, 50)),
}
CUSTOM = ("harmonic", "negative binomial r=3", "two-sided")

INTERVALS = {
    "clopper_pearson": lambda m, x, a: clopper_pearson(m, x, a),
    "lower": lambda m, x, a: one_sided_interval(m, x, a, "lower"),
    "upper": lambda m, x, a: one_sided_interval(m, x, a, "upper"),
    "sterne": lambda m, x, a: sterne_interval(m, x, a),
    "upper_bound": lambda m, x, a: upper_bound(m, x, a),
    "lower_bound": lambda m, x, a: lower_bound(m, x, a),
}

# (model, method, alpha, natural grid); the grid is mapped to theta
AUDITS = [
    ("binomial 20", m, a, np.linspace(0.01, 0.99, 25))
    for m in ("sterne", "clopper_pearson", "lower", "upper") for a in (1e-6, 0.05)
] + [
    ("binomial 1000", m, 0.05, np.linspace(0.2, 0.4, 11)) for m in ("sterne", "clopper_pearson")
] + [
    ("oddsratio 49/317/245", m, 0.05, np.geomspace(0.5, 20.0, 15))
    for m in ("sterne", "clopper_pearson", "upper")
] + [
    ("poisson", m, 0.05, np.linspace(0.5, 8.0, 16)) for m in ("sterne", "clopper_pearson")
]

LENGTHS = [
    ("binomial 20", 0.05, range(21)),
    ("binomial 20", 1e-6, range(21)),
    ("oddsratio 49/317/245", 0.05, range(50)),
    ("poisson", 0.01, range(40)),
]

ARGUMENT_ERRORS = [
    "binomial --n 20 --x 5 --alpha 1.5",
    "binomial --n 0 --x 0",
    "oddsratio --y1 9 --n1 5 --y2 1 --n2 4",
    "poisson --x -1",
    "binomial --n 20 --x 25",
    "curve --model binomial --n 20 --x 5 --to 0.9",
    "binomial --n 20 --x 5 --curve --from 0.9 --to 0.2",
    "binomial --n 20 --x 5 --curve --from 0.2 --to 0.9 --points 1",
    "audit --model binomial --n 20 --from 0.9 --to 0.9",
    "audit --model binomial --n 20 --from 0.2 --to 0.9 --points 1",
    "curve --model binomial --x 5 --from 0.2 --to 0.9",
    "curve --model poisson --from 0.5 --to 9",
    "binomial --n 20 --x 5 --curve --from -0.5 --to 0.5",
    "audit --model binomial --n 20 --from -0.5 --to 0.5",
    "poisson --x 3 --curve --from -1 --to 5",
    "poisson --x 3 --curve --from 1 --to inf",
    "poisson --x 3 --curve --from=-inf --to 5",
    "curve --model poisson --x 3 --from 1 --to inf",
    "audit --model poisson --from 1 --to inf",
    "oddsratio --y1 42 --n1 49 --y2 203 --n2 317 --curve --from 0.5 --to inf",
]

COMMANDS = [
    "binomial --n 20 --x 5",
    "binomial --n 20 --x 0 --format json",
    "binomial --n 1000 --x 300 --format csv",
    "binomial --n 20 --x 20 --method upper --format json",
    "poisson --x 3 --alpha 0.01",
    "poisson --x 0 --method lower --format csv",
    "oddsratio --y1 42 --n1 49 --y2 203 --n2 317",
    "oddsratio --y1 42 --n1 49 --y2 203 --n2 317 --method cp --format json",
    "binomial --n 20 --x 5 --curve --from 0.05 --to 0.6 --points 40",
    "curve --model poisson --x 3 --from 0.5 --to 9 --points 30",
    "audit --model binomial --n 20 --from 0.02 --to 0.98 --points 49",
    "audit --model oddsratio --n1 49 --n2 317 --s 245 --method cp --from 0.5 --to 20 --points 21",
    "audit --model poisson --method lower --from 0.5 --to 6 --points 12",
    "binomial --n 100000 --x 10 --curve --from 0.5 --to 0.5001 --points 3",
    "poisson --x 0 --curve --from 1000 --to 1001 --points 3",
]


# curve ranges as factors of the estimate: below, across, inside and above
# the plateau; large supports get narrow ranges, as a wide one holds
# thousands of jumps
WIDE = ((0.3, 0.6), (0.6, 1.0), (0.9, 1.1), (0.999, 1.001), (1.0, 1.3), (1.2, 1.5), (0.5, 1.8))
NARROW = ((0.5, 0.5001), (0.99, 0.995), (0.998, 1.002), (1.0, 1.001), (1.005, 1.01), (2.0, 2.0002))


def _curve_commands() -> list[str]:
    out = []
    for model, x, est in (("binomial --n 20", 0, 0.01), ("binomial --n 20", 5, 0.25),
                          ("binomial --n 20", 20, 0.99), ("binomial --n 1000", 1, 0.01),
                          ("binomial --n 1000", 300, 0.3), ("binomial --n 1000", 999, 0.99),
                          ("binomial --n 100000", 10, 1e-4), ("binomial --n 100000", 31000, 0.31),
                          ("poisson", 0, 0.5), ("poisson", 3, 3.0), ("poisson", 40, 40.0),
                          ("poisson", 1000, 1000.0), ("poisson", 96000, 96000.0)):
        ranges = NARROW if "100000" in model or x >= 1000 else WIDE
        for lo, hi in ranges:
            a, b = est * lo, est * hi if model == "poisson" else min(est * hi, 0.999)
            if a < b:
                out.append(f"{model} --x {x} --curve --from {a!r} --to {b!r} --points 5")
    for y1 in (20, 42, 49):
        for lo, hi in ((0.05, 0.5), (0.5, 2.0), (2.0, 8.0), (8.0, 30.0), (30.0, 300.0)):
            out.append(f"oddsratio --y1 {y1} --n1 49 --y2 {245 - y1} --n2 317 --curve "
                       f"--from {lo!r} --to {hi!r} --points 5")
    return out


def _fields(value):
    """The repr of each field of an output, recursively."""
    if dataclasses.is_dataclass(value):
        return {f.name: _fields(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return repr(value.tolist())
    if isinstance(value, dict):
        return {str(k): _fields(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_fields(v) for v in value]
    return repr(value)


def _cli(argv: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = run(argv.split(), out=out)
        except SystemExit as e:
            code = e.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cases():
    """(case, thunk) pairs in a fixed order."""
    models = {}

    def model(name):
        if name not in models:
            models[name] = MODELS[name][0]()
        return models[name]

    for name, (_, xs) in MODELS.items():
        alphas = [a for a in ALPHAS if a >= 0.01] if name in CUSTOM else ALPHAS
        for x in xs:
            for alpha in alphas:
                for method, fn in INTERVALS.items():
                    yield ([name, method, x, alpha],
                           lambda f=fn, n=name, x=x, a=alpha: f(model(n), x, a))
    for name, method, alpha, nats in AUDITS:

        def audit(n=name, m=method, a=alpha, nats=nats):
            mdl = model(n)
            return exact_coverage(mdl, m, a, [mdl.from_natural(float(v)) for v in nats])
        yield [name, "exact_coverage", method, alpha], audit
    for name, alpha, xs in LENGTHS:
        yield ([name, "length_table", alpha],
               lambda n=name, a=alpha, xs=xs: length_table(
                   model(n), ("sterne", "cp", "lower", "upper"), a, xs))
    for argv in ARGUMENT_ERRORS + COMMANDS + _curve_commands():
        yield ["cli", argv], lambda argv=argv: _cli(argv)


_NUMBER = re.compile(r"(-?(?:inf|nan|\d+(?:\.\d*)?(?:e[-+]?\d+)?))")


def _leaves(tree, path=""):
    """(field path, repr) of every leaf of an output; list items share their field."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        for value in tree:
            yield from _leaves(value, path)
    else:
        yield path or "out", tree


def _moves(old: str | None, new: str | None) -> tuple[int, float, list[str]]:
    """(numbers moved, largest relative move, other changes) between two reprs."""
    if old == new:
        return 0, 0.0, []
    if old is None or new is None:
        return 0, 0.0, [f"{old} -> {new}"]
    a, b = _NUMBER.split(old), _NUMBER.split(new)
    if len(a) != len(b) or a[::2] != b[::2]:
        return 0, 0.0, ["text changed"]
    moved, worst, other = 0, 0.0, []
    for u, v in zip(a[1::2], b[1::2]):
        if u == v:
            continue
        x, y = float(u), float(v)
        if not (math.isfinite(x) and math.isfinite(y)):
            other.append(f"{u} -> {v}")
            continue
        moved += 1
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return moved, worst, other


def compare(old_path: str, new_path: str, out=sys.stdout) -> int:
    """Print the moves between two digests, case by case, then per field; return
    the exit status, 1 if any case moved, appeared or vanished, else 0."""
    def read(path):
        with open(path) as fh:
            return {json.dumps(line["case"]): line for line in map(json.loads, fh)}

    old, new = read(old_path), read(new_path)
    fields, cases = {}, 0
    for key in list(old) + [k for k in new if k not in old]:
        if key not in old or key not in new:
            out.write(f"{key}\n  only in {old_path if key in old else new_path}\n")
            continue
        a, b = old[key], new[key]
        notes = []
        if a["error"] != b["error"]:
            notes.append(f"error: {a['error']} -> {b['error']}")
        if a["evals"] != b["evals"]:
            notes.append(f"evals: {a['evals']} -> {b['evals']}")
        olds, news = list(_leaves(a["out"])), list(_leaves(b["out"]))
        if [f for f, _ in olds] != [f for f, _ in news]:
            # an output that appears or goes with an error is named by the error line
            notes += [] if a["error"] != b["error"] else ["fields changed"]
            olds = news = []
        moved = {}
        for (field, u), (_, v) in zip(olds, news):
            n, worst, other = _moves(u, v)
            if n or other:
                m = moved.setdefault(field, [0, 0.0, []])
                m[0], m[1] = m[0] + n, max(m[1], worst)
                m[2].extend(other)
        for field, (n, worst, other) in moved.items():
            parts = [f"{n} moved, max relative {worst:.2g}"] if n else []
            notes.append(f"{field}: " + "; ".join(parts + other))
            if n:
                f = fields.setdefault(field, [0, 0, 0.0])
                f[0], f[1], f[2] = f[0] + 1, f[1] + n, max(f[2], worst)
        if notes:
            cases += 1
            out.write(key + "\n" + "".join(f"  {n}\n" for n in notes))
    out.write(f"{cases} of {len(new)} cases moved\n")
    for field, (c, n, worst) in sorted(fields.items()):
        out.write(f"  {field}: {n} numbers in {c} cases, max relative {worst:.2g}\n")
    total = lambda lines: sum(line["evals"] for line in lines.values())
    out.write(f"evals: {total(old)} -> {total(new)}\n")
    return 1 if cases or old.keys() != new.keys() else 0


def main() -> None:
    calls = [0]
    evaluate = LatticeFamily.distribution

    def counted(self, theta):
        calls[0] += 1
        return evaluate(self, theta)

    LatticeFamily.distribution = counted
    for case, thunk in cases():
        calls[0] = 0
        out, error = None, None
        try:
            out = _fields(thunk())
        except ExactCIError as e:
            error = type(e).__name__
        line = {"case": case, "out": out, "error": error, "evals": calls[0]}
        sys.stdout.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two digest files instead of printing one")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    else:
        main()
