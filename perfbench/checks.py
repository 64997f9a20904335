"""Output checks of the benchmark's operations against the reference module.

Each check returns a list of failure messages; an empty list means the
output is correct. Nothing is compared with a stored copy of exactci's
output. The properties checked are:

* one-sided and Clopper-Pearson bounds agree with the closed-form quantiles
  and solve their tail equation, P(X <= x) = a or P(X >= x) = a, when the
  tail is recomputed with scipy.stats at the returned bound;
* a Sterne endpoint has pi <= alpha just outside it, so the interval holds
  the exact confidence set, and pi > alpha once delta plus a margin inside
  it, so it is no wider than delta on each side;
* an audit's minimum coverage is at least 1 - alpha, and its coverage at a
  seeded sample of grid points equals a sum of scipy pmf values;
* length tables hold the lengths of intervals that pass the checks above;
* a p-value curve matches the directly summed pi away from its jumps, and
  equals 1 on the plateau; it lists every jump theta_{k,x} in range, and
  across each one pi drops by exactly f(k) on the side away from the plateau
  (left limit >= right limit above the plateau, the mirror image below it),
  to the directly summed pi without k.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

import numpy as np

import reference as ref
from workloads import CURVE_POINTS, Op

DEFAULT_DELTA = 1e-8
# Bound agreement with the closed-form quantile, on the canonical scale.
THETA_RTOL = 1e-8
# Relative miss allowed in the tail equation at a returned bound.
TAIL_RTOL = 1e-6
# Sterne probes: relative step off an endpoint, and the slack on alpha that
# covers the rounding of the reference sum itself.
STEP_RTOL = 1e-9
PI_SLACK = 1e-9
# Curve samples are compared with pi only this far (relative, canonical
# scale) from a jump, where rounding cannot move a sample across it.
JUMP_GUARD = 1e-7
PI_RTOL = 1e-9
COVERAGE_ATOL = 1e-10
SAMPLES = 6


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_bound(spec: ref.Spec, x: int, a: float, side: str, theta: float) -> list[str]:
    """An exact one-sided bound at level a: upper solves F(x) = a, lower P(X >= x) = a."""
    lo, hi = spec.support()
    at_edge = (x == lo) if side == "lower" else (hi is not None and x == hi)
    if at_edge:
        want = -math.inf if side == "lower" else math.inf
        return [] if theta == want else [f"{side} bound at the support edge is {theta}, not {want}"]
    if not math.isfinite(theta):
        return [f"{side} bound is {theta} for an interior outcome"]
    fails = []
    nat = ref.bound_natural(spec, x, a, side)
    if nat is not None:
        want = spec.to_theta(nat)
        if not _close(theta, want, THETA_RTOL):
            fails.append(f"{side} bound theta {theta!r} != closed form {want!r}")
    tail = ref.cdf(spec, x, theta) if side == "upper" else ref.sf(spec, x, theta)
    if not abs(tail / a - 1.0) <= TAIL_RTOL:
        fails.append(f"{side} bound tail {tail:.6g} != level {a:.6g}")
    return fails


def check_cp(spec, x, alpha, theta_lo, theta_hi) -> list[str]:
    return (check_bound(spec, x, alpha / 2.0, "lower", theta_lo)
            + check_bound(spec, x, alpha / 2.0, "upper", theta_hi))


def check_sterne(spec: ref.Spec, x: int, alpha: float, theta_lo: float, theta_hi: float,
                 delta: float = DEFAULT_DELTA) -> list[str]:
    """Containment of the exact confidence set and tightness within delta."""
    lo, hi = spec.support()
    fails = []
    for side, theta, edge, outward in (("lower", theta_lo, x == lo, -1.0),
                                       ("upper", theta_hi, hi is not None and x == hi, 1.0)):
        if edge:
            if theta != outward * math.inf:
                fails.append(f"sterne {side} endpoint at the support edge is {theta}")
            continue
        if not math.isfinite(theta):
            fails.append(f"sterne {side} endpoint is {theta} for an interior outcome")
            continue
        step = STEP_RTOL * max(1.0, abs(theta))
        outside = ref.pi(spec, x, theta + outward * step)
        if outside > alpha * (1.0 + PI_SLACK):
            fails.append(f"sterne {side}: pi just outside = {outside:.6g} > alpha = {alpha:g}")
        inside = ref.pi(spec, x, theta - outward * (delta + step))
        if not inside > alpha:
            fails.append(f"sterne {side}: pi delta inside = {inside:.6g} <= alpha = {alpha:g}")
    if not theta_lo < theta_hi:
        fails.append(f"sterne interval [{theta_lo}, {theta_hi}] is empty")
    return fails


def check_one_sided(spec, x, alpha, method, theta_lo, theta_hi) -> list[str]:
    if method == "lower":
        fails = [] if theta_hi == math.inf else [f"lower interval ends at {theta_hi}"]
        return fails + check_bound(spec, x, alpha, "lower", theta_lo)
    fails = [] if theta_lo == -math.inf else [f"upper interval starts at {theta_lo}"]
    return fails + check_bound(spec, x, alpha, "upper", theta_hi)


def check_interval(spec, x, alpha, method, theta_lo, theta_hi, nat_lo, nat_hi) -> list[str]:
    fails = []
    for t, nat in ((theta_lo, nat_lo), (theta_hi, nat_hi)):
        if not _close(spec.to_natural(t), nat, 1e-12):
            fails.append(f"{method}: natural {nat!r} is not the image of theta {t!r}")
    if method == "sterne":
        return fails + check_sterne(spec, x, alpha, theta_lo, theta_hi)
    if method == "clopper_pearson":
        return fails + check_cp(spec, x, alpha, theta_lo, theta_hi)
    return fails + check_one_sided(spec, x, alpha, method, theta_lo, theta_hi)


CLI_METHODS = {"sterne": ["sterne"], "cp": ["clopper_pearson"], "lower": ["lower"],
               "upper": ["upper"], "all": ["sterne", "clopper_pearson", "lower", "upper"]}


def _cli_records(op: Op, text: str) -> list[dict]:
    if op.fmt == "json":
        doc = json.loads(text)
        return doc if isinstance(doc, list) else [doc]
    rows = list(csv.DictReader(io.StringIO(text)))
    return [{"method": r["method"], "alpha": float(r["alpha"]),
             "theta": [float(r["theta_lo"]), float(r["theta_hi"])],
             "natural": [float(r["natural_lo"]), float(r["natural_hi"])]} for r in rows]


def check_cli(op: Op, output) -> list[str]:
    code, text = output
    if code != 0:
        return [f"exit status {code}"]
    records = _cli_records(op, text)
    methods = [r["method"] for r in records]
    if methods != CLI_METHODS[op.method]:
        return [f"methods {methods} for --method {op.method}"]
    fails = []
    for r in records:
        if r["alpha"] != op.alpha:
            fails.append(f"{r['method']}: alpha {r['alpha']} echoed for {op.alpha}")
        if op.fmt == "json" and (r["x"] != op.x or r["model"]["kind"] != op.spec.kind):
            fails.append(f"{r['method']}: model {r['model']} x {r['x']} echoed")
        (t_lo, t_hi), (n_lo, n_hi) = r["theta"], r["natural"]
        fails += check_interval(op.spec, op.x, op.alpha, r["method"], t_lo, t_hi, n_lo, n_hi)
    return fails


def check_library(op: Op, ci) -> list[str]:
    method = "sterne" if op.kind == "sterne" else "clopper_pearson"
    if ci.method != method or ci.alpha != op.alpha:
        return [f"interval reports method {ci.method} alpha {ci.alpha}"]
    return check_interval(op.spec, op.x, op.alpha, method, ci.theta_lo, ci.theta_hi,
                          ci.natural_lo, ci.natural_hi)


def _outcomes(spec: ref.Spec, top_eta: float) -> np.ndarray:
    """Outcomes an audit sums over: the support, cut where the top grid point leaves < 1e-16."""
    lo, hi = spec.support()
    if hi is not None:
        return np.arange(lo, hi + 1)
    ys = ref.window(spec, top_eta)
    tail = np.array([ref.sf(spec, int(y) + 1, top_eta) for y in ys])
    return np.arange(lo, int(ys[np.argmax(tail < 1e-16)]) + 1)


def check_coverage(op: Op, report, runner, rng: random.Random) -> list[str]:
    """Minimum coverage, and coverage recomputed from scipy pmf at sampled grid points."""
    spec, alpha = op.spec, op.alpha
    fails = []
    method = {"cp": "clopper_pearson"}.get(op.method, op.method)
    if report.method != method or report.alpha != alpha:
        fails.append(f"report for method {report.method} alpha {report.alpha}")
    if not report.min_coverage >= 1.0 - alpha:
        fails.append(f"minimum coverage {report.min_coverage!r} < 1 - alpha = {1 - alpha}")
    if report.min_coverage != float(np.min(report.coverage)):
        fails.append("min_coverage is not the minimum of the coverage column")
    grid = np.asarray(report.grid)
    if not set(op.grid) <= set(grid.tolist()):
        fails.append("the audited grid lacks points of the requested grid")
        return fails

    xs = _outcomes(spec, max(op.grid))
    model = runner.model(spec)
    if op.method == "cp":
        # the intervals of every outcome from the closed forms
        bounds = [ref.cp_natural(spec, int(x), alpha) for x in xs]
        t_lo = np.array([spec.to_theta(b[0]) for b in bounds])
        t_hi = np.array([spec.to_theta(b[1]) for b in bounds])
    else:
        # exactci's own intervals, a seeded sample of them checked independently
        got = [runner.m.coverage.interval_bounds(model, "sterne", int(x), alpha) for x in xs]
        t_lo = np.array([g[0] for g in got])
        t_hi = np.array([g[1] for g in got])
        for i in rng.sample(range(len(xs)), min(3, len(xs))):
            fails += [f"x = {xs[i]}: {f}" for f in
                      check_sterne(spec, int(xs[i]), alpha, t_lo[i], t_hi[i])]
    position = {v: i for i, v in enumerate(grid.tolist())}
    for eta in rng.sample(list(op.grid), SAMPLES):
        lower, upper = ref.coverage(spec, eta, xs, t_lo, t_hi, tol=1e-9 * max(1.0, abs(eta)))
        got = float(report.coverage[position[eta]])
        if not lower - COVERAGE_ATOL <= got <= upper + COVERAGE_ATOL:
            fails.append(f"coverage at eta = {eta!r} is {got!r}, scipy sum gives [{lower!r}, {upper!r}]")
    return fails


def check_lengths(op: Op, table: dict, runner, rng: random.Random) -> list[str]:
    spec, alpha = op.spec, op.alpha
    lo, hi = spec.support()
    xs = range(lo, hi + 1)
    fails = []
    if set(table) != {"sterne", "clopper_pearson"}:
        return [f"length table has methods {sorted(table)}"]
    for x, got in zip(xs, table["clopper_pearson"]):
        a, b = ref.cp_natural(spec, x, alpha)
        if not _close(float(got), b - a, 1e-8):
            fails.append(f"cp length at x = {x} is {got!r}, closed form gives {b - a!r}")
    for x in rng.sample(list(xs), 4):
        ci = runner.m.sterne.sterne_interval(runner.model(spec), x, alpha)
        if float(table["sterne"][x - lo]) != ci.natural_hi - ci.natural_lo:
            fails.append(f"sterne length at x = {x} is not the length of its interval")
        fails += [f"x = {x}: {f}" for f in check_interval(
            spec, x, alpha, "sterne", ci.theta_lo, ci.theta_hi, ci.natural_lo, ci.natural_hi)]
    return fails


def _reference_jumps(spec: ref.Spec, x: int, t_from: float, t_to: float) -> list[tuple]:
    """(k, theta_{k,x}) for every special parameter inside [t_from, t_to], in increasing order."""
    lo, hi = spec.support()
    jumps = []
    for direction in (-1, 1):
        k = x + direction
        while k >= lo and (hi is None or k <= hi):
            t = ref.special_param(spec, x, k)
            if (direction < 0 and t < t_from) or (direction > 0 and t > t_to):
                break
            if t_from <= t <= t_to:
                jumps.append((k, t))
            k += direction
    return sorted(jumps, key=lambda kt: kt[1])


def check_curve(op: Op, output, rng: random.Random) -> list[str]:
    code, text = output
    if code != 0:
        return [f"exit status {code}"]
    spec, x = op.spec, op.x
    rows = list(csv.DictReader(io.StringIO(text)))
    samples = [(float(r["natural_param"]), float(r["pvalue"])) for r in rows if r["side"] == "sample"]
    lefts = [(float(r["natural_param"]), float(r["pvalue"])) for r in rows if r["side"] == "left"]
    rights = [(float(r["natural_param"]), float(r["pvalue"])) for r in rows if r["side"] == "right"]
    fails = []
    if len(samples) != CURVE_POINTS:
        fails.append(f"{len(samples)} samples for {CURVE_POINTS} points")
    if not all(0.0 <= p <= 1.0 for _, p in samples + lefts + rights):
        fails.append("a p-value outside [0, 1]")
    t_from, t_to = spec.to_theta(op.grid[0]), spec.to_theta(op.grid[1])
    want = _reference_jumps(spec, x, t_from, t_to)
    if len(lefts) != len(want) or [n for n, _ in lefts] != [n for n, _ in rights]:
        fails.append(f"{len(lefts)} left / {len(rights)} right limits for {len(want)} jumps")
        return fails
    plateau_lo, plateau_hi = ref.plateau(spec, x)
    guard = lambda t: JUMP_GUARD * max(1.0, abs(t))
    for (nat, left), (_, right), (k, t) in zip(lefts, rights, want):
        if not _close(spec.to_theta(nat), t, 1e-9):
            fails.append(f"jump at {nat!r} is not a special parameter (nearest {t!r})")
            continue
        # pi drops by f(k) = f(x) on moving away from the plateau across the jump of k;
        # on the far side k is more likely than x, so it leaves the sum
        near, far = (left, right) if k > x else (right, left)
        drop = float(ref.pmf(spec, t, [k])[0])
        expected = ref.pi(spec, x, t, exclude=(k,))
        if not abs(far - expected) <= PI_RTOL * expected + 1e-15:
            fails.append(f"jump at {nat!r}: limit {far!r} away from the plateau, "
                         f"direct sum gives {expected!r}")
        if not near >= far:
            fails.append(f"jump at {nat!r}: limit {near!r} on the plateau side < {far!r}")
        elif not abs((near - far) - drop) <= PI_RTOL * drop + 1e-15:
            fails.append(f"jump at {nat!r} drops by {near - far!r}, f(k) = {drop!r}")
    for nat, p in samples:
        eta = spec.to_theta(nat)
        if plateau_lo + guard(plateau_lo) < eta < plateau_hi - guard(plateau_hi) and p != 1.0:
            fails.append(f"p-value {p!r} on the plateau at {nat!r}")
    away = [(nat, p) for nat, p in samples
            if all(abs(spec.to_theta(nat) - t) > guard(t) for _, t in want)]
    for nat, p in rng.sample(away, min(SAMPLES * 4, len(away))):
        expected = ref.pi(spec, x, spec.to_theta(nat))
        if not abs(p - expected) <= PI_RTOL * expected + 1e-15:
            fails.append(f"p-value at {nat!r} is {p!r}, direct sum gives {expected!r}")
    return fails


def check(op: Op, output, runner, seed: int) -> list[str]:
    """Failure messages for one operation's output; empty when it is correct."""
    rng = random.Random(f"check:{seed}:{op!r}")
    if op.kind == "cli":
        return check_cli(op, output)
    if op.kind in ("sterne", "cp"):
        return check_library(op, output)
    if op.kind == "coverage":
        return check_coverage(op, output, runner, rng)
    if op.kind == "lengths":
        return check_lengths(op, output, runner, rng)
    return check_curve(op, output, rng)
