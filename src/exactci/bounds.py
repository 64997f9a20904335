"""Classical exact bounds: one-sided limits, Clopper-Pearson, tail p-values.

The upper bound b_alpha(x) is the unique theta with F_theta(x) = alpha
(+inf when x is the support maximum); the lower bound a_alpha(x) solves
P_theta(X >= x) = alpha (-inf when x is the support minimum). Both come from
a bracketed search on theta: F_theta(x) is continuous and strictly decreasing
in theta, and log F_theta(x) is concave with slope E[X | X <= x] - E[X], so
one Newton step from the plateau brackets the root and ``_bisect`` shrinks
the bracket by safeguarded Newton steps. ``_bisect`` also ends every Sterne
endpoint that is not a jump. Lower bounds are solved as upper bounds of the
reflected family, so both tails are summed from their far end and keep their
digits at tiny alpha. Each solve returns the tail it certified at its end,
and the intervals report that tail as the endpoint p-value instead of
evaluating the end again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import BadAlpha, BadDelta, DivergentSearch, OutOfSupport, UnboundedEnumeration
from .family import LatticeFamily, plateau, reflect
from .models import Model

THETA_TOL = 1e-10


def _unpack(obj) -> tuple[LatticeFamily, callable]:
    if isinstance(obj, Model):
        return obj.family, obj.to_natural
    if isinstance(obj, LatticeFamily):
        return obj, lambda t: t
    raise TypeError(f"expected a Model or LatticeFamily, got {type(obj).__name__}")


def _check_alpha(alpha) -> float:
    # NumPy real scalars are numbers here; True and False fall outside (0, 1)
    if not isinstance(alpha, numbers.Real) or not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
    return float(alpha)


def _check_delta(delta) -> float:
    # True is no tolerance of 1
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real) or not 0.0 < delta < math.inf:
        raise BadDelta(f"delta must be a finite positive number, got {delta!r}")
    return float(delta)


def _check_x(family: LatticeFamily, x) -> int:
    """x as an int; non-integers, bools and points off the support raise."""
    if x not in family.support:
        raise OutOfSupport(f"x = {x} is not in the support")
    return int(x)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A closed parameter interval on both the canonical and natural scales.

    ``pvalue_lo`` / ``pvalue_hi`` hold the p-values achieved at the two
    endpoints. At a root they are the tail the solver certified there (twice
    it for Clopper-Pearson), at most the target level; at a Sterne jump they
    are the one-sided limit values. An open end has 1.0 where its side of the
    support is bounded (the family is a point mass there) and None where it
    is not.
    """

    method: str
    alpha: float
    theta_lo: float
    theta_hi: float
    natural_lo: float
    natural_hi: float
    pvalue_lo: float | None = None
    pvalue_hi: float | None = None
    delta: float | None = None


def _newton(t, f_t, df, target):
    """The Newton step on log f from t to log target, if f(t) > 0 > df = f'(t)."""
    if df is not None and f_t > 0.0 and df < 0.0:
        return t + (math.log(target) - math.log(f_t)) * f_t / df
    return None


def _bisect(f, lo, hi, f_lo, f_hi, target, tol, gap, slope=None):
    """Shrink a bracket of a decreasing f with f(lo) > target >= f(hi).

    Each step evaluates one point strictly inside the bracket, until it is at
    most ``tol`` wide and f falls by at most ``gap`` across it, or until no
    float lies strictly inside it, so a tolerance below the float spacing
    cannot stall it. Returns (lo, hi, f_lo, f_hi); hi is the conservative end.

    The point is the midpoint unless ``slope(t)`` gives f'(t) at the point f
    last evaluated (at the start lo, if the caller evaluated it last, else hi).
    Then it is the Newton step on log f from there, kept as in rtsafe
    (Numerical Recipes 9.4) only if it lands inside the bracket and is under
    half the step before the last. It aims w/4 past the root, w = min(tol,
    gap / |f'|), clear of the rounding of f; once that aim is within w/2 of
    hi, a probe at hi - 0.99 w certifies the other end instead. A w under 64
    float spacings, where rounding decides the crossing, is left to midpoints.
    """
    t, f_t = (lo, f_lo) if slope and slope(lo) is not None else (hi, f_hi)
    before = last = math.inf
    while hi - lo > tol or f_lo - f_hi > gap:
        p = 0.5 * (lo + hi)
        if not lo < p < hi:
            break
        df = slope(t) if slope else None
        step = _newton(t, f_t, df, target)
        if step is not None and (w := min(tol, gap / -df)) > 64.0 * math.ulp(t):
            step = t - 0.99 * w if t == hi and t - step < 0.75 * w else step + 0.25 * w
            if lo < step < hi and abs(step - t) < 0.5 * before:
                p = step
        before, last = last, abs(p - t)
        t, f_t = p, f(p)
        if f_t > target:
            lo, f_lo = t, f_t
        else:
            hi, f_hi = t, f_t
    return lo, hi, f_lo, f_hi


def _solve_decreasing_cdf(family: LatticeFamily, x: int, target: float) -> tuple[float, float]:
    """Solve F_theta(x) = target in theta; F is strictly decreasing in theta.

    x must lie below the support maximum. log F is concave in theta (its
    second derivative is Var(X | X <= x) - Var(X) <= 0), so one Newton step
    on it from the lower end of the plateau of x lands where F <= target and
    closes the bracket. Without that step (F is 1 or below the target there)
    the bracket grows from the plateau in doubling steps that start at the
    plateau width. ``_bisect`` then shrinks it to THETA_TOL, reading
    d/dtheta F off each evaluation, and its upper end is returned with F
    there: at most the target, the conservative side for an upper bound. As in
    ``stage_one``, a probe whose evaluation raises DivergentSearch or
    UnboundedEnumeration counts as past the crossing, and its error is raised
    if the search returns it; a growth probe that fails is retried half as far
    from the last end, until that is no step.
    """
    lo, hi = plateau(family, x)
    if not math.isfinite(lo):
        lo = hi - 1.0
    step = hi - lo
    failed, d = {}, None

    def cdf(theta: float) -> float:
        nonlocal d
        try:
            d = family.distribution(theta)
        except (DivergentSearch, UnboundedEnumeration) as err:
            failed[theta] = err
            return -math.inf
        return d.cdf(x)

    def slope(theta: float) -> float | None:  # at the theta cdf evaluated last
        return d.cdf_slope(x) if d is not None and d.theta == theta else None

    def grow(t: float, f_t: float, direction: float, done):
        # (p, F(p), t, F(t)): doubling steps from t until done(F(p)), t the last point passed
        s = step
        while s <= 2.0**79:
            p = t + direction * s
            f_p = cdf(p)
            if p in failed:
                s *= 0.5
                if t + direction * s == t:
                    raise failed[p]
            elif done(f_p):
                return p, f_p, t, f_t
            else:
                t, f_t, s = p, f_p, 2.0 * s
        raise DivergentSearch("no bracket for the cdf equation")

    f_lo = cdf(lo)
    if lo in failed:
        raise failed[lo]
    if f_lo < target:
        lo, f_lo, hi, f_hi = grow(lo, f_lo, -1.0, lambda f: f >= target)
    else:
        t = _newton(lo, f_lo, slope(lo), target)
        hi = t if t is not None and lo < t < math.inf else hi
        f_hi = cdf(hi)
    if f_hi > target:
        hi, f_hi, lo, f_lo = grow(hi, f_hi, +1.0, lambda f: f <= target)
    _, hi, _, f_hi = _bisect(cdf, lo, hi, f_lo, f_hi, target, THETA_TOL, math.inf, slope)
    if hi in failed:
        raise failed[hi]
    return hi, f_hi


def _upper_end(family: LatticeFamily, x: int, alpha: float) -> tuple[float, float]:
    """(b_alpha(x), F(x) at it) for a checked x; (+inf, 1.0) at the support maximum."""
    if x == family.support.hi:
        return math.inf, 1.0
    return _solve_decreasing_cdf(family, x, alpha)


def _lower_end(family: LatticeFamily, x: int, alpha: float) -> tuple[float, float]:
    """(a_alpha(x), P(X >= x) at it) for a checked x; (-inf, 1.0) at the support minimum."""
    # P_theta(X >= x) = alpha is the cdf equation of -X at -x in the reflection
    b, tail = _upper_end(reflect(family), -x, alpha)
    return -b, tail


def upper_bound(fam_or_model, x: int, alpha: float) -> float:
    """Exact upper confidence bound: the theta with F_theta(x) = alpha."""
    family = _unpack(fam_or_model)[0]
    alpha = _check_alpha(alpha)
    return _upper_end(family, _check_x(family, x), alpha)[0]


def lower_bound(fam_or_model, x: int, alpha: float) -> float:
    """Exact lower confidence bound: the theta with P_theta(X >= x) = alpha."""
    family = _unpack(fam_or_model)[0]
    alpha = _check_alpha(alpha)
    return _lower_end(family, _check_x(family, x), alpha)[0]


def pvalue_left(fam_or_model, x: int, theta: float) -> float:
    """P_theta(X <= x), the left tail at the observed outcome."""
    family = _unpack(fam_or_model)[0]
    x = _check_x(family, x)
    return family.distribution(theta).cdf(x)


def pvalue_right(fam_or_model, x: int, theta: float) -> float:
    """P_theta(X >= x), the right tail at the observed outcome."""
    family = _unpack(fam_or_model)[0]
    x = _check_x(family, x)
    return family.distribution(theta).sf(x)


def pvalue_two(fam_or_model, x: int, theta: float) -> float:
    """Twice the smaller tail, capped at 1; both tails come from one evaluation."""
    family = _unpack(fam_or_model)[0]
    x = _check_x(family, x)
    d = family.distribution(theta)
    return min(1.0, 2.0 * min(d.cdf(x), d.sf(x)))


def _ci(method: str, alpha: float, to_natural, lo: float, hi: float, p_lo, p_hi,
        delta: float | None = None) -> ConfidenceInterval:
    """The interval [lo, hi] with its natural ends and endpoint p-values."""
    return ConfidenceInterval(method, alpha, lo, hi, to_natural(lo), to_natural(hi), p_lo, p_hi,
                              delta)


def clopper_pearson(fam_or_model, x: int, alpha: float) -> ConfidenceInterval:
    """Equal-tail exact interval [a_{alpha/2}(x), b_{alpha/2}(x)]."""
    family, to_natural = _unpack(fam_or_model)
    alpha = _check_alpha(alpha)
    x = _check_x(family, x)
    a, p_a = _lower_end(family, x, alpha / 2.0)
    b, p_b = _upper_end(family, x, alpha / 2.0)
    # each certified tail, at most alpha/2 < 1/2, is the smaller of the two tails
    # at its end, as the other one is at least 1 - alpha/2
    return _ci("clopper_pearson", alpha, to_natural, a, b, min(1.0, 2.0 * p_a),
               min(1.0, 2.0 * p_b))


def one_sided_interval(fam_or_model, x: int, alpha: float, side: str) -> ConfidenceInterval:
    """[a_alpha(x), +inf) for side="lower", (-inf, b_alpha(x)] for side="upper".

    The finite end carries the tail its solve certified; the open end carries
    1.0 where that side of the support is bounded and None where it is not.
    """
    family, to_natural = _unpack(fam_or_model)
    alpha = _check_alpha(alpha)
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    x = _check_x(family, x)
    if side == "lower":
        (a, p_a), b = _lower_end(family, x, alpha), math.inf
        p_b = 1.0 if family.support.bounded_above else None
    else:
        a, (b, p_b) = -math.inf, _upper_end(family, x, alpha)
        p_a = 1.0 if family.support.bounded_below else None
    return _ci(side, alpha, to_natural, a, b, p_a, p_b)
