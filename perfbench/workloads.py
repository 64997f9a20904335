"""The benchmark's workloads: fixed operation sequences generated from a seed.

A workload is a list of slots. Each slot fixes the kind of operation, the
model family, its size class, where the outcome sits (edge or interior),
alpha, the method and the output format; the seed only draws the exact size
and outcome inside the slot. Every seed therefore yields the same mix of
work. Each round has an odd number of slots, so that over whole rounds the
median operation always falls on the same slot.
"""

from __future__ import annotations

import io
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from spec import Spec

ALPHAS = (0.01, 0.05, 0.1)
GRID_POINTS = 501
CURVE_POINTS = 500
# Blocks of 1e4- and 1e5-point calls in a large-support round, which also
# holds the two multi-second calls once: they take about a quarter of the
# round's time and 2 of its 121 operations.
LARGE_BLOCKS = 7
CP_BOUND_FAULT = (
    "bounds._solve_decreasing_cdf stops at an absolute cdf gap of CDF_TOL = 1e-12, "
    "so bounds at alpha = 1e-15 miss their tail equation by orders of magnitude"
)


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``kind`` is ``cli`` (one interval request through exactci.cli.run),
    ``sterne`` or ``cp`` (library interval calls), ``coverage``
    (exact_coverage over ``grid``, canonical scale), ``lengths`` (length_table
    over the whole support) or ``curve`` (a p-value curve through
    exactci.cli.run, natural range ``grid``). ``fault`` names the known
    program fault that makes the operation fail, if any.
    """

    kind: str
    spec: Spec
    x: int | None = None
    alpha: float | None = None
    method: str | None = None
    fmt: str | None = None
    grid: tuple = ()
    fault: str | None = None


def _outcome(rng: random.Random, lo: int, hi: int, where: str) -> int:
    """An outcome at the edge, next to it, or in the interior of [lo, hi]."""
    if where == "lo":
        return lo
    if where == "hi":
        return hi
    if where == "lo+":
        return lo + rng.randint(1, 5)
    if where == "hi-":
        return hi - rng.randint(1, 5)
    return lo + int(round((hi - lo) * rng.uniform(0.25, 0.4)))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _jitter(rng: random.Random, size: float, share: float = 0.05) -> int:
    return int(round(size * rng.uniform(1.0 - share, 1.0)))


def _table(rng: random.Random, n1: int, n2: int) -> Spec:
    """A 2x2 odds-ratio model conditioned near the expected total."""
    s = int(round((n1 + n2) * rng.uniform(0.45, 0.5)))
    return Spec("oddsratio", n1=n1, n2=n2, s=s)


def _interior_table(rng: random.Random, spec: Spec, where: str) -> int:
    """Outcome of a table at its edges or within 3 sd of its null mean."""
    lo, hi = spec.support()
    if where in ("lo", "hi", "lo+", "hi-"):
        return _outcome(rng, lo, hi, where)
    big = spec.n1 + spec.n2
    mean = spec.s * spec.n1 / big
    sd = math.sqrt(spec.s * spec.n1 * spec.n2 * (big - spec.s) / (big * big * (big - 1)))
    return min(hi - 1, max(lo + 1, int(round(mean + rng.uniform(1.0, 3.0) * sd))))


def interactive(rng: random.Random) -> list[Op]:
    ops = []
    alphas = itertools.cycle(ALPHAS)

    def cli(spec, x, method, fmt):
        ops.append(Op("cli", spec, x=x, alpha=next(alphas), method=method, fmt=fmt))

    # binomial, n up to 1e3: (n range, [(outcome, method, format), ...])
    for n_lo, n_hi, slots in (
        (20, 40, [("lo", "all", "json"), ("hi", "sterne", "csv"),
                  ("mid", "cp", "json"), ("mid", "all", "csv")]),
        (150, 250, [("lo+", "all", "json"), ("hi-", "upper", "csv"),
                    ("mid", "lower", "json"), ("mid", "sterne", "json")]),
        (800, 1000, [("lo", "sterne", "json"), ("hi", "cp", "csv"), ("mid", "all", "json"),
                     ("mid", "all", "csv"), ("mid", "sterne", "csv"), ("mid", "cp", "json"),
                     ("mid", "upper", "json"), ("mid", "lower", "csv")]),
    ):
        for where, method, fmt in slots:
            n = rng.randint(n_lo, n_hi)
            cli(Spec("binomial", n=n), _outcome(rng, 0, n, where), method, fmt)

    # Poisson, x up to 1e4 (x = 0 is the support edge)
    pois = Spec("poisson")
    cli(pois, 0, "all", "json")
    for x_lo, x_hi, slots in (
        (5, 15, [("all", "csv"), ("sterne", "json"), ("cp", "csv")]),
        (100, 300, [("all", "json"), ("sterne", "csv"), ("upper", "json"), ("lower", "csv")]),
        (4000, 6000, [("sterne", "json"), ("cp", "csv"), ("sterne", "csv"), ("upper", "json")]),
    ):
        for method, fmt in slots:
            cli(pois, _log_uniform(rng, x_lo, x_hi), method, fmt)

    # odds ratio: the 42/49 vs 203/317 case-control table, then small tables
    case_control = Spec("oddsratio", n1=49, n2=317, s=245)
    for where, method, fmt in (("lo", "all", "json"), ("hi", "sterne", "csv"),
                               ("mid", "cp", "json"), ("mid", "all", "csv"),
                               ("mid", "lower", "json"), ("mid", "upper", "csv")):
        cli(case_control, _interior_table(rng, case_control, where), method, fmt)
    for method, fmt in (("all", "json"), ("sterne", "csv"), ("cp", "csv"), ("all", "csv"),
                        ("sterne", "json")):
        spec = _table(rng, rng.randint(40, 60), rng.randint(40, 60))
        cli(spec, _interior_table(rng, spec, "mid"), method, fmt)

    rng.shuffle(ops)
    # Fixed requests that fail today, whatever the seed.
    for n, x in ((20, 5), (1000, 300)):
        ops.append(Op("cli", Spec("binomial", n=n), x=x, alpha=1e-15, method="all",
                      fmt="json", fault=CP_BOUND_FAULT))
    return ops


def large_support(rng: random.Random) -> list[Op]:
    ops = []

    # Each slot fixes alpha and the outcome class; the seed moves sizes by up to 5 %.
    def call(kind, spec, where, alpha):
        if spec.kind == "oddsratio":
            x = _interior_table(rng, spec, where)
        elif spec.kind == "binomial":
            x = _outcome(rng, 0, spec.n, where)
        else:
            x = where
        ops.append(Op(kind, spec, x=x, alpha=alpha))

    def binomial(size):
        return Spec("binomial", n=_jitter(rng, size))

    def table(size):
        return _table(rng, _jitter(rng, 2 * size), _jitter(rng, 3 * size))

    # A block in cost order: 8 cheaper slots, 3 alike, then 6 dearer. Over
    # LARGE_BLOCKS blocks the alike slots hold the median of the round.
    for _ in range(LARGE_BLOCKS):
        # about 1e4 points
        call("sterne", binomial(1e4), "hi-", 0.05)
        call("sterne", binomial(1e4), "mid", 0.1)
        call("cp", binomial(1e4), "lo", 0.01)
        call("sterne", Spec("poisson"), _jitter(rng, 1e4), 0.01)
        call("cp", Spec("poisson"), _jitter(rng, 1e4), 0.05)
        call("sterne", table(1e4), "mid", 0.01)
        call("sterne", table(1e4), "lo+", 0.05)
        call("cp", table(1e4), "mid", 0.1)
        # about 1e5 points
        for _ in range(3):
            call("sterne", binomial(1e5), "mid", 0.05)
        call("sterne", binomial(1e5), "lo+", 0.1)
        call("cp", binomial(1e5), "mid", 0.05)
        call("sterne", Spec("poisson"), _jitter(rng, 1e5), 0.05)
        call("cp", Spec("poisson"), _jitter(rng, 1e5), 0.1)
        call("sterne", table(1e5), "mid", 0.05)
        call("cp", table(1e5), "mid", 0.01)
    # the multi-second operations, once a round: windows of 1e6 points
    call("sterne", binomial(1e6), "mid", 0.05)
    call("sterne", Spec("poisson"), _jitter(rng, 1e6), 0.05)
    rng.shuffle(ops)
    return ops


def _grid(spec: Spec, lo: float, hi: float, geometric: bool = False) -> tuple:
    naturals = np.geomspace(lo, hi, GRID_POINTS) if geometric else np.linspace(lo, hi, GRID_POINTS)
    return tuple(spec.to_theta(float(v)) for v in naturals)


def audit(rng: random.Random) -> list[Op]:
    ops = []

    def coverage(spec, method, grid, alpha):
        ops.append(Op("coverage", spec, alpha=alpha, method=method, grid=grid))

    # cost order: 6 cheaper slots (with the curves below), then 7 alike that
    # hold the median, then 6 dearer
    for size, method, alpha in ((20, "sterne", 0.05), (20, "cp", 0.05), (50, "sterne", 0.1),
                                (100, "sterne", 0.05), (100, "cp", 0.05), (200, "sterne", 0.05)):
        spec = Spec("binomial", n=_jitter(rng, size))
        coverage(spec, method, _grid(spec, 0.005, 0.995), alpha)
    for s in range(241, 248):
        spec = Spec("oddsratio", n1=49, n2=317, s=s)
        coverage(spec, "sterne", _grid(spec, 0.1, 10.0, geometric=True), 0.05)
    spec = Spec("oddsratio", n1=49, n2=317, s=rng.randint(243, 247))
    coverage(spec, "cp", _grid(spec, 0.1, 10.0, geometric=True), 0.05)
    pois = Spec("poisson")
    coverage(pois, "sterne", _grid(pois, 0.5, rng.uniform(19.5, 20.0)), 0.05)

    spec = Spec("binomial", n=_jitter(rng, 50))
    ops.append(Op("lengths", spec, alpha=0.05))

    ops.append(Op("curve", Spec("binomial", n=20), x=rng.randint(3, 7), grid=(0.01, 0.7)))
    ops.append(Op("curve", Spec("oddsratio", n1=49, n2=317, s=245), x=rng.randint(38, 46),
                  grid=(0.5, 12.0)))
    ops.append(Op("curve", pois, x=rng.randint(2, 5), grid=(0.2, 12.0)))
    rng.shuffle(ops)
    return ops


GENERATORS = {"interactive": interactive, "large-support": large_support, "audit": audit}


def build(workload: str, seed: int) -> list[Op]:
    """The operation sequence of one round of ``workload`` for ``seed``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def warm_up_ops(workload: str) -> list[Op]:
    """Small operations that touch each code path once before timing starts."""
    b, p = Spec("binomial", n=6), Spec("poisson")
    t = Spec("oddsratio", n1=6, n2=8, s=7)
    if workload == "interactive":
        return [Op("cli", b, x=2, alpha=0.05, method="all", fmt="json"),
                Op("cli", p, x=2, alpha=0.05, method="all", fmt="csv"),
                Op("cli", t, x=3, alpha=0.05, method="all", fmt="json")]
    if workload == "large-support":
        return [Op("sterne", b, x=2, alpha=0.05), Op("cp", p, x=2, alpha=0.05),
                Op("sterne", t, x=3, alpha=0.05)]
    return [Op("coverage", b, alpha=0.05, method="sterne", grid=_grid(b, 0.1, 0.9)[::50]),
            Op("coverage", b, alpha=0.05, method="cp", grid=_grid(b, 0.1, 0.9)[::50]),
            Op("lengths", b, alpha=0.05),
            Op("curve", b, x=2, grid=(0.05, 0.9))]


def cli_argv(op: Op) -> list[str]:
    """The exactci command line of a ``cli`` or ``curve`` operation."""
    spec = op.spec
    if spec.kind == "binomial":
        argv = ["binomial", "--n", str(spec.n), "--x", str(op.x)]
    elif spec.kind == "poisson":
        argv = ["poisson", "--x", str(op.x)]
    else:
        argv = ["oddsratio", "--y1", str(op.x), "--n1", str(spec.n1),
                "--y2", str(spec.s - op.x), "--n2", str(spec.n2)]
    if op.kind == "curve":
        return argv + ["--curve", "--from", repr(op.grid[0]), "--to", repr(op.grid[1]),
                       "--points", str(CURVE_POINTS)]
    return argv + ["--alpha", repr(op.alpha), "--method", op.method, "--format", op.fmt]


class Runner:
    """Runs operations against exactci, looking every name up at call time.

    Names are looked up on the modules for each call, so that a tracer that
    patches them sees the calls. Models are built once per maker function and
    kept, as a caller holding a model would.
    """

    def __init__(self, exactci_modules):
        self.m = exactci_modules
        self._models = {}

    def model(self, spec: Spec):
        maker_name = {"binomial": "make_binomial", "poisson": "make_poisson",
                      "oddsratio": "make_odds_ratio"}[spec.kind]
        maker = getattr(self.m.models, maker_name)
        key = (spec, maker)
        if key not in self._models:
            if spec.kind == "binomial":
                model = maker(spec.n)
            elif spec.kind == "poisson":
                model = maker()
            else:
                model = maker(spec.n1, spec.n2, spec.s)
            # fill the lazy log-weight table of a bounded family
            model.family.distribution(0.0)
            self._models[key] = model
        return self._models[key]

    def prepare(self, ops) -> None:
        for op in ops:
            if op.kind in ("sterne", "cp", "coverage", "lengths"):
                self.model(op.spec)

    def run(self, op: Op):
        m = self.m
        if op.kind in ("cli", "curve"):
            out = io.StringIO()
            code = m.cli.run(cli_argv(op), out=out)
            return code, out.getvalue()
        model = self.model(op.spec)
        if op.kind == "sterne":
            return m.sterne.sterne_interval(model, op.x, op.alpha)
        if op.kind == "cp":
            return m.bounds.clopper_pearson(model, op.x, op.alpha)
        if op.kind == "coverage":
            return m.coverage.exact_coverage(model, op.method, op.alpha, list(op.grid))
        lo, hi = op.spec.support()
        return m.coverage.length_table(model, ("sterne", "cp"), op.alpha, range(lo, hi + 1))
