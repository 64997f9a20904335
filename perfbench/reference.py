"""Reference computations for the benchmark's output checks, made apart from exactci.

Nothing here imports exactci. Models are described by a :class:`spec.Spec`, and
every quantity is computed from textbook definitions:

* one-sided and Clopper-Pearson bounds from closed forms: beta quantiles
  (binomial), gamma quantiles (Poisson) and scipy's conditional odds-ratio
  interval (2x2 tables);
* tail probabilities from ``scipy.stats`` cdf/sf (binomial, Poisson) or a
  log-space sum of binomial coefficients (odds ratio);
* the two-sided Sterne p-value

      pi(x, eta) = sum_y 1[f_eta(y) <= f_eta(x)] f_eta(y)

  by direct summation, in mpmath on small supports and in log space with
  ``scipy.stats`` logpmf on large ones;
* exact coverage of a set of intervals as a sum of scipy pmf values.

The canonical parameter eta is logit(p) for the binomial and log of the
natural parameter for Poisson and odds-ratio models.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special, stats
from scipy.stats.contingency import odds_ratio

from spec import Spec

# Windows of at most this many outcomes are summed in mpmath, larger ones in log space.
MP_MAX_POINTS = 3000
MP_DPS = 40
# Outcomes further than this many standard deviations (plus a constant) from
# the mean carry less than exp(-1800) of the mass and are left out of sums.
WINDOW_SD = 60.0
# scipy's conditional odds-ratio interval solves with nested root finding; it
# is used only on tables whose support is at most this long.
OR_SCIPY_MAX_POINTS = 1000


def log_binom_coef(n, k):
    """log C(n, k) elementwise, from log-gamma."""
    k = np.asarray(k, dtype=float)
    return special.gammaln(n + 1.0) - special.gammaln(k + 1.0) - special.gammaln(n - k + 1.0)


def log_weight(spec: Spec, ys) -> np.ndarray:
    """log w_y of the family written as f_eta(y) proportional to w_y exp(eta y)."""
    ys = np.asarray(ys, dtype=float)
    if spec.kind == "binomial":
        return log_binom_coef(spec.n, ys)
    if spec.kind == "poisson":
        return -special.gammaln(ys + 1.0)
    return log_binom_coef(spec.n1, ys) + log_binom_coef(spec.n2, spec.s - ys)


def special_param(spec: Spec, x: int, k: int) -> float:
    """eta at which outcomes k and x are equally likely: (log w_x - log w_k) / (k - x)."""
    lw = log_weight(spec, [x, k])
    return float((lw[0] - lw[1]) / (k - x))


def plateau(spec: Spec, x: int) -> tuple[float, float]:
    """The eta interval on which x is a most likely outcome, so pi(x, eta) = 1."""
    lo, hi = spec.support()
    left = -math.inf if x == lo else special_param(spec, x, x - 1)
    right = math.inf if hi is not None and x == hi else special_param(spec, x, x + 1)
    return left, right


def window(spec: Spec, eta: float, x: int | None = None) -> np.ndarray:
    """Outcomes that carry all but a negligible share of the mass at eta, plus x."""
    lo, hi = spec.support()
    if spec.kind == "oddsratio":
        return np.arange(lo, hi + 1)
    if spec.kind == "binomial":
        p = float(special.expit(eta))
        mean, sd = spec.n * p, math.sqrt(spec.n * p * (1.0 - p))
    else:
        mean = math.exp(eta)
        sd = math.sqrt(mean)
    a = max(lo, math.floor(mean - WINDOW_SD * sd - WINDOW_SD))
    b = math.ceil(mean + WINDOW_SD * sd + WINDOW_SD)
    if hi is not None:
        b = min(hi, b)
    if x is not None:
        a, b = min(a, x), max(b, x)
    return np.arange(a, b + 1)


def logpmf(spec: Spec, eta: float, ys) -> np.ndarray:
    """log f_eta(y) in double precision, from scipy.stats where it has the model."""
    ys = np.asarray(ys)
    if spec.kind == "binomial":
        # sum over the smaller of p and 1 - p so that neither loses digits
        if eta > 0.0:
            return stats.binom.logpmf(spec.n - ys, spec.n, special.expit(-eta))
        return stats.binom.logpmf(ys, spec.n, special.expit(eta))
    if spec.kind == "poisson":
        return stats.poisson.logpmf(ys, math.exp(eta))
    lo, hi = spec.support()
    full = np.arange(lo, hi + 1)
    g = log_weight(spec, full) + eta * full
    norm = special.logsumexp(g)
    return g[ys - lo] - norm


def pmf(spec: Spec, eta: float, ys) -> np.ndarray:
    ys = np.asarray(ys)
    if spec.kind == "binomial":
        if eta > 0.0:
            return stats.binom.pmf(spec.n - ys, spec.n, special.expit(-eta))
        return stats.binom.pmf(ys, spec.n, special.expit(eta))
    if spec.kind == "poisson":
        return stats.poisson.pmf(ys, math.exp(eta))
    return np.exp(logpmf(spec, eta, ys))


def cdf(spec: Spec, x: int, eta: float) -> float:
    """P_eta(X <= x)."""
    if spec.kind == "binomial":
        if eta > 0.0:
            return float(stats.binom.sf(spec.n - x - 1, spec.n, special.expit(-eta)))
        return float(stats.binom.cdf(x, spec.n, special.expit(eta)))
    if spec.kind == "poisson":
        return float(stats.poisson.cdf(x, math.exp(eta)))
    lo, _ = spec.support()
    ys = np.arange(lo, x + 1)
    return float(min(1.0, np.exp(special.logsumexp(logpmf(spec, eta, ys)))))


def sf(spec: Spec, x: int, eta: float) -> float:
    """P_eta(X >= x)."""
    if spec.kind == "binomial":
        if eta > 0.0:
            return float(stats.binom.cdf(spec.n - x, spec.n, special.expit(-eta)))
        return float(stats.binom.sf(x - 1, spec.n, special.expit(eta)))
    if spec.kind == "poisson":
        return float(stats.poisson.sf(x - 1, math.exp(eta)))
    _, hi = spec.support()
    ys = np.arange(x, hi + 1)
    return float(min(1.0, np.exp(special.logsumexp(logpmf(spec, eta, ys)))))


def _mp_terms(spec: Spec, eta: float, ys: np.ndarray) -> list:
    """Unnormalised mpmath weights w_y exp(eta y) for consecutive outcomes ys."""
    e = mpmath.exp(mpmath.mpf(eta))
    a = int(ys[0])
    if spec.kind == "binomial":
        first = mpmath.binomial(spec.n, a)
        ratio = lambda y: mpmath.mpf(spec.n - y) / (y + 1)
    elif spec.kind == "poisson":
        first = 1 / mpmath.factorial(a)
        ratio = lambda y: mpmath.mpf(1) / (y + 1)
    else:
        n1, n2, s = spec.n1, spec.n2, spec.s
        first = mpmath.binomial(n1, a) * mpmath.binomial(n2, s - a)
        ratio = lambda y: mpmath.mpf((n1 - y) * (s - y)) / ((y + 1) * (n2 - s + y + 1))
    term = first * e**a
    terms = [term]
    for y in range(a, int(ys[-1])):
        term = term * ratio(y) * e
        terms.append(term)
    return terms


def pi_mp(spec: Spec, x: int, eta: float, exclude=()) -> float:
    """pi(x, eta) summed in mpmath at MP_DPS digits over the whole window.

    Outcomes in ``exclude`` are left out of the tail sum (but not of the
    total), which gives the limit of pi on the side of a jump where they
    are more likely than x.
    """
    ys = window(spec, eta, x)
    a = int(ys[0])
    with mpmath.workdps(MP_DPS):
        terms = _mp_terms(spec, eta, ys)
        fx = terms[x - a]
        total = mpmath.fsum(terms)
        tail = mpmath.fsum(t for y, t in enumerate(terms, a) if t <= fx and y not in exclude)
        return float(min(1, tail / total))


def pi_log(spec: Spec, x: int, eta: float, exclude=()) -> float:
    """pi(x, eta) summed in log space from scipy.stats logpmf.

    The sum is divided by the window's total, which cancels the common
    rounding error that log-gamma differences of order 1e7 leave in every
    logpmf value of a large binomial.
    """
    ys = window(spec, eta, x)
    lp = logpmf(spec, eta, ys)
    keep = (lp <= lp[x - int(ys[0])]) & ~np.isin(ys, list(exclude))
    return float(min(1.0, np.exp(special.logsumexp(lp[keep]) - special.logsumexp(lp))))


def pi(spec: Spec, x: int, eta: float, exclude=()) -> float:
    """pi(x, eta) by direct summation: mpmath on small windows, log space on large ones."""
    if len(window(spec, eta, x)) <= MP_MAX_POINTS:
        return pi_mp(spec, x, eta, exclude)
    return pi_log(spec, x, eta, exclude)


def bound_natural(spec: Spec, x: int, a: float, side: str) -> float | None:
    """Exact one-sided bound at level a on the natural scale.

    ``side="upper"`` solves P(X <= x) = a, ``side="lower"`` solves
    P(X >= x) = a. Support edges give the natural-scale limits. Returns None
    for odds-ratio tables too large for scipy's conditional interval.
    """
    lo, hi = spec.support()
    if side == "upper" and hi is not None and x == hi:
        return 1.0 if spec.kind == "binomial" else math.inf
    if side == "lower" and x == lo:
        return 0.0
    if spec.kind == "binomial":
        if side == "upper":
            return float(stats.beta.isf(a, x + 1, spec.n - x))
        return float(stats.beta.ppf(a, x, spec.n - x + 1))
    if spec.kind == "poisson":
        if side == "upper":
            return float(stats.gamma.isf(a, x + 1))
        return float(stats.gamma.ppf(a, x))
    if hi - lo + 1 > OR_SCIPY_MAX_POINTS:
        return None
    y2 = spec.s - x
    table = [[x, spec.n1 - x], [y2, spec.n2 - y2]]
    res = odds_ratio(table, kind="conditional")
    if side == "upper":
        return float(res.confidence_interval(1.0 - a, alternative="less").high)
    return float(res.confidence_interval(1.0 - a, alternative="greater").low)


def cp_natural(spec: Spec, x: int, alpha: float) -> tuple[float | None, float | None]:
    """Clopper-Pearson interval: the one-sided bounds at alpha / 2 each."""
    return (bound_natural(spec, x, alpha / 2.0, "lower"),
            bound_natural(spec, x, alpha / 2.0, "upper"))


def coverage(spec: Spec, eta: float, xs, theta_lo, theta_hi, tol: float = 0.0) -> tuple[float, float]:
    """Exact coverage at eta of the intervals [theta_lo[i], theta_hi[i]] of outcomes xs.

    Returns (lower, upper): outcomes whose endpoint lies within ``tol`` of eta
    count only in the upper value, so a check can accept either side of an
    endpoint that two computations place a rounding error apart.
    """
    xs = np.asarray(xs)
    lo = np.asarray(theta_lo, dtype=float)
    hi = np.asarray(theta_hi, dtype=float)
    p = pmf(spec, eta, xs)
    inside = (lo + tol <= eta) & (eta <= hi - tol)
    touching = (lo - tol <= eta) & (eta <= hi + tol)
    return float(p[inside].sum()), float(p[touching].sum())
