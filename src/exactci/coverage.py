"""Exact coverage audit by enumeration of outcomes.

For each parameter on a grid, the coverage of an interval method is the
exact probability that the interval of a random outcome contains it:

    c(eta) = sum_x f_eta(x) 1[eta in C(x)].

Intervals are closed, so the exact methods here never fall below the nominal
level. The audited grid is the user grid plus every finite interval endpoint
inside its span, which makes the reported minimum exact over the span: the
coverage function only changes where an endpoint is crossed.

Unbounded supports are handled by truncating the outcome sum at the
1 - 1e-14 quantile of the largest grid parameter, which can only understate
coverage; the evaluator refuses that parameter if it is +inf.

The grid is summed in blocks of consecutive parameters, with no
``distribution`` call. Summation windows (see :mod:`exactci.family`) move
monotonically in theta, so a block spans the first row's window start to the
last row's window end, with 2^13 doubles over the first window's width rows
(fewer where the windows widen past twice that), and its temporaries stay
near 0.1 MB. A row is exp(log w_x + theta x minus its max) over its sum: off
the row's window its terms are exactly 0.0, so it is that theta's pmf,
normalised over its whole window. Coverage and expected length (inf where an
outcome of infinite length has mass) sum it in another order than one sum per
theta, which moves them by a few ulps, under 1e-15 relative. Infinite
parameters, and finite ones whose theta x overflows at the mode, are point
masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (ConfidenceInterval, _check_alpha, _check_delta, _check_x, _checked, _unpack,
                     clopper_pearson, one_sided_interval)
from .errors import BadGrid, UnboundedEnumeration
from .sterne import DEFAULT_DELTA, _sweep, sterne_interval

_TAIL = 1e-14
# doubles per block of grid rows; 2^16 was faster on large supports but cost 0.7 MB of peak RSS
_BLOCK = 1 << 13

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
    """The interval of one outcome by one method of METHODS (or "cp"): the name is checked, then
    x, alpha and delta in ``_checked``, so a bad delta is refused whatever the method."""
    method = _canon_method(method)
    _checked(fam_or_model, x, alpha, delta)
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
    """``interval_bounds`` of each checked x in xs, Sterne ends from one unchecked sweep. Alpha and
    delta are checked first, so an empty xs still refuses them; cp, lower and upper re-check per x."""
    alpha, delta = _check_alpha(alpha), _check_delta(delta)
    if method != "sterne":
        return [interval_bounds(fam_or_model, method, x, alpha, delta) for x in xs]
    family, to_natural = _unpack(fam_or_model)
    ends = _sweep(family, xs, alpha, delta)
    return [(a, b, to_natural(a), to_natural(b)) for a, b in (ends[x] for x in xs)]


def exact_coverage(fam_or_model, method: str, alpha: float, eta_grid,
                   delta: float = DEFAULT_DELTA) -> CoverageReport:
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
    if not grid or any(math.isnan(v) for v in grid):
        raise BadGrid(f"eta_grid must be non-empty and hold no nan, got {grid!r}")

    if not family.support.bounded_below:
        raise UnboundedEnumeration("coverage enumeration needs a support bounded below")
    if family.support.bounded:
        xs = [int(v) for v in family.support.points()]
    else:  # the evaluator refuses +inf; -inf is the point mass at lo
        d = family.distribution(max(grid))
        i = min(int(np.searchsorted(np.cumsum(d.pmf_values), 1.0 - _TAIL)), len(d.xs) - 1)
        xs = list(range(int(family.support.lo), int(d.xs[i]) + 1))

    t_lo, t_hi, n_lo, n_hi = map(np.asarray, zip(*_bounds_of(fam_or_model, method, xs, alpha, delta)))

    ends = np.concatenate([t_lo, t_hi])
    ends = ends[np.isfinite(ends) & (min(grid) <= ends) & (ends <= max(grid))]
    full = sorted(set(grid).union(ends.tolist()))

    coverage, lengths = _grid_sums(family, full, t_lo, t_hi,
                                   n_hi - n_lo if family.support.bounded else None)
    return CoverageReport(
        method=method,
        alpha=float(alpha),
        grid=np.asarray(full),
        natural=np.asarray([to_natural(v) for v in full]),
        coverage=coverage,
        expected_length=lengths,
        min_coverage=float(coverage.min()),
    )


def _grid_sums(family, grid: list, t_lo, t_hi, lengths):
    """(coverage, expected length or None) at each theta of the ascending ``grid``, in
    blocks, given the ends and lengths of the outcomes lo, lo + 1, ... of a support
    bounded below."""
    x0, last = int(family.support.lo), int(family.support.lo) + len(t_lo) - 1
    coverage, expected = np.empty(len(grid)), np.empty(len(grid))
    stop, i = len(grid), 0
    while stop > 1:  # blocks end before the trailing point masses
        a, b, _ = family._window(grid[stop - 1])
        if a < b:
            break
        stop -= 1
    while i < len(grid):
        a, b, _ = family._window(grid[i])
        if a == b:  # a point mass: an infinite theta, or theta x overflowing at the mode
            j, p = i + 1, np.ones((1, 1))
        else:
            j = min(i + max(1, _BLOCK // (b - a + 1)), stop)
            if j > i + 1:
                b = family._window(grid[j - 1])[1]
                if (j - i) * (b - a + 1) > 2 * _BLOCK:  # the windows widen across the block
                    j = i + max(1, _BLOCK // (b - a + 1))
                    b = family._window(grid[j - 1])[1]
            with np.errstate(over="ignore"):  # theta x of a narrow row past its window: exact zeros
                p = np.multiply.outer(grid[i:j], np.arange(a, b + 1))
            p += family._log_weights(a, b)
            p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=1, keepdims=True)
        if lengths is not None:
            span = lengths[a - x0 : b - x0 + 1]
            finite = np.isfinite(span)
            # inf where an outcome of infinite length has mass
            expected[i:j] = np.where(np.einsum("ij,j->i", p, ~finite) > 0.0, math.inf,
                                     np.einsum("ij,j->i", p, np.where(finite, span, 0.0)))
        m, eta = min(b, last) - a + 1, np.asarray(grid[i:j])[:, None]
        p[:, :m] *= (t_lo[a - x0 : a - x0 + m] <= eta) & (eta <= t_hi[a - x0 : a - x0 + m])
        coverage[i:j] = p[:, :m].sum(axis=1)
        i = j
    return coverage, None if lengths is None else expected


def length_table(fam_or_model, methods, alpha: float, xs, delta: float = DEFAULT_DELTA) -> dict:
    """Natural-scale interval lengths per outcome, one array per method.

    Infinite lengths are reported as inf. Sterne rows come from the same
    warm-started sweep as in :func:`exact_coverage`.
    """
    xs = [_check_x(_unpack(fam_or_model)[0], x) for x in xs]
    out = {}
    for method in methods:
        name = _canon_method(method)
        rows = _bounds_of(fam_or_model, name, xs, alpha, delta)
        out[name] = np.asarray([nat_hi - nat_lo for _, _, nat_lo, nat_hi in rows])
    return out


def _csv_rows(rows, fh) -> None:
    """Write each row as one CSV line: text as it is, None blank, a number as repr(float(v))."""
    for row in rows:
        fh.write(",".join([c if isinstance(c, str) else "" if c is None else repr(float(c))
                           for c in row]) + "\n")


def write_csv(report: CoverageReport, fh) -> None:
    """Emit a report as CSV through ``_csv_rows``: eta, natural_param, coverage, expected_length."""
    lengths = report.expected_length
    _csv_rows([("eta", "natural_param", "coverage", "expected_length"),
               *zip(report.grid, report.natural, report.coverage,
                    [None] * len(report.grid) if lengths is None else lengths)], fh)
