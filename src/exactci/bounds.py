"""Classical exact bounds: one-sided limits, Clopper-Pearson, tail p-values.

The upper bound b_alpha(x) is the unique theta with F_theta(x) = alpha
(+inf when x is the support maximum); the lower bound a_alpha(x) solves
P_theta(X >= x) = alpha (-inf when x is the support minimum). Both come from
a bracketed bisection on theta: F_theta(x) is continuous and strictly
decreasing in theta, so the initial bracket grows from the plateau endpoints
by doubling steps until it straddles the target, then ``_bisect`` shrinks it.
``_bisect`` is also the bisection under every Sterne endpoint. Lower bounds
are solved as upper bounds of the reflected family, so both tails are summed
from their far end and keep their digits at tiny alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadAlpha, DivergentSearch, OutOfSupport, UnboundedEnumeration
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
    if not isinstance(alpha, (int, float)) or not 0.0 < float(alpha) < 1.0:
        raise BadAlpha(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
    return float(alpha)


def _check_x(family: LatticeFamily, x) -> int:
    """x as an int; non-integers, bools and points off the support raise."""
    if x not in family.support:
        raise OutOfSupport(f"x = {x} is not in the support")
    return int(x)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A closed parameter interval on both the canonical and natural scales.

    ``pvalue_lo`` / ``pvalue_hi`` hold the p-values achieved at the two
    endpoints; for root endpoints they sit at the target level, for jump
    endpoints of the Sterne construction they are the one-sided limit values.
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


def _bisect(f, lo, hi, f_lo, f_hi, target, tol, gap):
    """Shrink a bracket of a decreasing f with f(lo) > target >= f(hi).

    Halves it until it is at most ``tol`` wide and f falls by at most ``gap``
    across it, or until no float lies strictly inside it (the midpoint rounds
    to an end), so a tolerance below the float spacing cannot stall it.
    Returns (lo, hi, f_lo, f_hi); hi is the conservative end.
    """
    while hi - lo > tol or f_lo - f_hi > gap:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid > target:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo, hi, f_lo, f_hi


def _solve_decreasing_cdf(family: LatticeFamily, x: int, target: float) -> float:
    """Solve F_theta(x) = target in theta; F is strictly decreasing in theta.

    x must lie below the support maximum. The bracket starts at the plateau
    of x and grows outward in doubling steps that start at the plateau width,
    then ``_bisect`` shrinks it to THETA_TOL. The upper end of the bracket is
    returned: F there is at most the target, the conservative side for an
    upper bound. As in ``stage_one``, a probe whose evaluation raises
    DivergentSearch or UnboundedEnumeration counts as past the crossing; its
    error is raised if the search returns it or must grow the bracket past it.
    """
    lo, hi = plateau(family, x)
    if not math.isfinite(lo):
        lo = hi - 1.0
    step = hi - lo
    failed = {}

    def cdf(theta: float) -> float:
        try:
            return family.distribution(theta).cdf(x)
        except (DivergentSearch, UnboundedEnumeration) as err:
            failed[theta] = err
            return -math.inf

    f_lo, f_hi, grow = cdf(lo), None, step
    while f_lo < target:
        if lo in failed:
            raise failed[lo]
        lo, hi, f_hi = lo - grow, lo, f_lo
        grow *= 2.0
        if grow > 2.0**80:
            raise DivergentSearch("no lower bracket for the cdf equation")
        f_lo = cdf(lo)
    f_hi = cdf(hi) if f_hi is None else f_hi
    grow = step
    while f_hi > target:
        lo, hi, f_lo = hi, hi + grow, f_hi
        grow *= 2.0
        if grow > 2.0**80:
            raise DivergentSearch("no upper bracket for the cdf equation")
        f_hi = cdf(hi)
    hi = _bisect(cdf, lo, hi, f_lo, f_hi, target, THETA_TOL, math.inf)[1]
    if hi in failed:
        raise failed[hi]
    return hi


def upper_bound(fam_or_model, x: int, alpha: float) -> float:
    """Exact upper confidence bound: the theta with F_theta(x) = alpha."""
    family = _unpack(fam_or_model)[0]
    alpha = _check_alpha(alpha)
    x = _check_x(family, x)
    if x == family.support.hi:
        return math.inf
    return _solve_decreasing_cdf(family, x, alpha)


def lower_bound(fam_or_model, x: int, alpha: float) -> float:
    """Exact lower confidence bound: the theta with P_theta(X >= x) = alpha."""
    family = _unpack(fam_or_model)[0]
    alpha = _check_alpha(alpha)
    x = _check_x(family, x)
    if x == family.support.lo:
        return -math.inf
    # P_theta(X >= x) = alpha is the cdf equation of -X at -x in the reflection
    return -_solve_decreasing_cdf(reflect(family), -x, alpha)


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
    """Twice the smaller tail, capped at 1."""
    return min(
        1.0,
        2.0 * min(pvalue_left(fam_or_model, x, theta), pvalue_right(fam_or_model, x, theta)),
    )


def clopper_pearson(fam_or_model, x: int, alpha: float) -> ConfidenceInterval:
    """Equal-tail exact interval [a_{alpha/2}(x), b_{alpha/2}(x)]."""
    family, to_natural = _unpack(fam_or_model)
    alpha = _check_alpha(alpha)
    a = lower_bound(family, x, alpha / 2.0)
    b = upper_bound(family, x, alpha / 2.0)
    return ConfidenceInterval(
        method="clopper_pearson",
        alpha=alpha,
        theta_lo=a,
        theta_hi=b,
        natural_lo=to_natural(a),
        natural_hi=to_natural(b),
        pvalue_lo=pvalue_two(family, x, a),
        pvalue_hi=pvalue_two(family, x, b),
    )


def _admissible(family: LatticeFamily, theta: float) -> bool:
    if theta == math.inf:
        return family.support.bounded_above
    if theta == -math.inf:
        return family.support.bounded_below
    return True


def one_sided_interval(fam_or_model, x: int, alpha: float, side: str) -> ConfidenceInterval:
    """[a_alpha(x), +inf) for side="lower", (-inf, b_alpha(x)] for side="upper"."""
    family, to_natural = _unpack(fam_or_model)
    alpha = _check_alpha(alpha)
    if side == "lower":
        a, b = lower_bound(family, x, alpha), math.inf
        p_lo = pvalue_right(family, x, a) if _admissible(family, a) else None
        p_hi = pvalue_right(family, x, b) if _admissible(family, b) else None
    elif side == "upper":
        a, b = -math.inf, upper_bound(family, x, alpha)
        p_lo = pvalue_left(family, x, a) if _admissible(family, a) else None
        p_hi = pvalue_left(family, x, b) if _admissible(family, b) else None
    else:
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    return ConfidenceInterval(
        method=side,
        alpha=alpha,
        theta_lo=a,
        theta_hi=b,
        natural_lo=to_natural(a),
        natural_hi=to_natural(b),
        pvalue_lo=p_lo,
        pvalue_hi=p_hi,
    )
