"""Exact coverage audit by enumeration of outcomes.

For each parameter on a grid, the coverage of an interval method is the
exact probability that the interval of a random outcome contains it:

    c(eta) = sum_x f_eta(x) 1[eta in C(x)].

Intervals are closed, so the exact methods here never fall below the nominal
level. The audited grid is the user grid plus every finite interval endpoint
inside its span, which makes the reported minimum exact over the span: the
coverage function only changes where an endpoint is crossed.

Unbounded supports are handled by truncating the outcome sum per parameter at
the 1 - 1e-14 quantile, which can only understate coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ConfidenceInterval, _unpack, clopper_pearson, one_sided_interval
from .errors import UnboundedEnumeration
from .sterne import DEFAULT_DELTA, _sweep, sterne_interval

_TAIL = 1e-14

METHODS = ("sterne", "clopper_pearson", "lower", "upper")


def _canon_method(method: str) -> str:
    name = {"cp": "clopper_pearson"}.get(method, method)
    if name not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS + ('cp',)}")
    return name


@dataclass(frozen=True)
class CoverageReport:
    """Exact coverage (and natural-scale expected length) over a grid."""

    method: str
    alpha: float
    grid: np.ndarray
    natural: np.ndarray
    coverage: np.ndarray
    expected_length: np.ndarray | None
    min_coverage: float


def _interval(fam_or_model, method: str, x: int, alpha: float, delta: float) -> ConfidenceInterval:
    """The interval of one outcome by one method of METHODS (or "cp")."""
    method = _canon_method(method)
    if method == "sterne":
        return sterne_interval(fam_or_model, x, alpha, delta)
    if method == "clopper_pearson":
        return clopper_pearson(fam_or_model, x, alpha)
    return one_sided_interval(fam_or_model, x, alpha, method)


def interval_bounds(fam_or_model, method: str, x: int, alpha: float, delta: float = DEFAULT_DELTA):
    """(theta_lo, theta_hi, natural_lo, natural_hi) for one outcome."""
    ci = _interval(fam_or_model, method, x, alpha, delta)
    return ci.theta_lo, ci.theta_hi, ci.natural_lo, ci.natural_hi


def _bounds_of(fam_or_model, method: str, xs, alpha: float, delta: float) -> list[tuple]:
    """``interval_bounds`` of each x in xs; Sterne ends come from one sweep."""
    if method != "sterne":
        return [interval_bounds(fam_or_model, method, x, alpha, delta) for x in xs]
    family, to_natural = _unpack(fam_or_model)
    ends = _sweep(family, xs, alpha, delta)
    return [(a, b, to_natural(a), to_natural(b)) for a, b in (ends[x] for x in xs)]


def exact_coverage(
    fam_or_model,
    method: str,
    alpha: float,
    eta_grid,
    delta: float = DEFAULT_DELTA,
) -> CoverageReport:
    """Audit one method over a grid of canonical parameters.

    ``eta_grid`` may contain -inf/+inf where the matching support endpoint is
    finite. Every finite interval endpoint inside the grid's span is always
    audited too, so ``min_coverage`` is exact over that span. Expected
    lengths are reported for bounded supports only. Sterne intervals come
    from one warm-started sweep over the outcomes (upper ends over ascending
    x, lower ends on the reflection), each endpoint bit-identical to the one
    ``interval_bounds`` gives.
    """
    family, to_natural = _unpack(fam_or_model)
    method = _canon_method(method)
    grid = [float(v) for v in eta_grid]
    if not grid:
        raise ValueError("eta_grid must not be empty")

    if family.support.bounded:
        xs = [int(v) for v in family.support.points()]
    else:
        if not family.support.bounded_below:
            raise UnboundedEnumeration(
                "coverage enumeration needs a support bounded below"
            )
        finite = [v for v in grid if math.isfinite(v)]
        if not finite:
            xs = [int(family.support.lo)]
        else:
            top = max(finite)
            d = family.distribution(top)
            i = min(int(np.searchsorted(np.cumsum(d.pmf_values), 1.0 - _TAIL)), len(d.xs) - 1)
            xs = list(range(int(family.support.lo), int(d.xs[i]) + 1))

    t_lo, t_hi, n_lo, n_hi = map(np.asarray, zip(*_bounds_of(fam_or_model, method, xs, alpha, delta)))

    full = list(grid)
    span_lo, span_hi = min(grid), max(grid)
    for t in np.concatenate([t_lo, t_hi]):
        if math.isfinite(t) and span_lo <= t <= span_hi:
            full.append(float(t))
    full = sorted(set(full))

    lengths = [] if family.support.bounded else None
    len_x = n_hi - n_lo
    len_finite = np.isfinite(len_x)
    coverage = []
    for eta in full:
        d = family.distribution(eta)
        pmf = np.zeros(len(xs))
        i = int(d.xs[0]) - xs[0]
        n = min(len(d.xs), len(xs) - i)
        pmf[i : i + n] = d.pmf_values[:n]
        member = (t_lo <= eta) & (eta <= t_hi)
        coverage.append(float(pmf[member].sum()))
        if lengths is not None:
            val = float(np.dot(pmf[len_finite], len_x[len_finite]))
            if np.any(~len_finite & (pmf > 0.0)):
                val = math.inf
            lengths.append(val)

    coverage = np.asarray(coverage)
    return CoverageReport(
        method=method,
        alpha=float(alpha),
        grid=np.asarray(full),
        natural=np.asarray([to_natural(v) for v in full]),
        coverage=coverage,
        expected_length=None if lengths is None else np.asarray(lengths),
        min_coverage=float(coverage.min()),
    )


def length_table(fam_or_model, methods, alpha: float, xs, delta: float = DEFAULT_DELTA) -> dict:
    """Natural-scale interval lengths per outcome, one array per method.

    Infinite lengths are reported as inf. Sterne rows come from the same
    warm-started sweep as in :func:`exact_coverage`.
    """
    xs = [int(x) for x in xs]
    out = {}
    for method in methods:
        name = _canon_method(method)
        rows = _bounds_of(fam_or_model, name, xs, alpha, delta)
        out[name] = np.asarray([nat_hi - nat_lo for _, _, nat_lo, nat_hi in rows])
    return out


def write_csv(report: CoverageReport, fh) -> None:
    """Emit a report as CSV: eta, natural_param, coverage, expected_length."""
    fh.write("eta,natural_param,coverage,expected_length\n")
    for i in range(len(report.grid)):
        length = ""
        if report.expected_length is not None:
            length = repr(float(report.expected_length[i]))
        eta = repr(float(report.grid[i]))
        nat = repr(float(report.natural[i]))
        cov = repr(float(report.coverage[i]))
        fh.write(f"{eta},{nat},{cov},{length}\n")
