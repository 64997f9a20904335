"""Minimum-likelihood (Sterne) p-values and confidence bounds.

The two-sided p-value of an outcome x at parameter eta is the total mass of
all outcomes no more probable than x:

    pi(x, eta) = sum_y 1[f_eta(y) <= f_eta(x)] f_eta(y).

Under strict log-concavity of the weights, pi(x, .) is piecewise smooth with
one piece per support point k: on the closed plateau
[theta_{x-1,x}, theta_{x+1,x}] it equals 1; for k > x + 1 it equals
P(X >= k) + F(x) on (theta_{k-1,x}, theta_{k,x}]; for k < x - 1 it equals
P(X >= x) + F(k) on [theta_{k,x}, theta_{k+1,x}); past the last special
parameter only the single tail survives. At each special parameter the
function jumps down by the mass of the outcome k that enters the
more-probable set, so the confidence set {eta : pi(x, eta) > alpha} has its
endpoints either at a jump or at a root of the smooth piece.

Every endpoint, single or swept, upper or lower, runs two stages on a family,
x and alpha that the public entries have checked. ``stage_one`` searches the
integers k for the last jump value at or above alpha, by Newton steps on the
log of the jump value in k, and returns k_star with the distribution at
theta_{k_star,x} and the jump value at k_star + 1. ``stage_two`` finds the
root inside the following piece by safeguarded Newton steps on log pi
(``bounds._bisect``) to within delta, reads its first evaluation and the
p-value at theta_{k_star+1,x} off stage one's returns, and returns the
``SterneResult`` with the distribution at theta_{k_star,x}. Past the last
jump of a bounded support the endpoint is the one-sided bound. One piece
search, ``_first_jump``, finds the first k > x with theta_{k,x} >= eta for
``sterne_pvalue`` and for the curve jumps ``_jumps_between`` lists. Lower
endpoints, the pieces left of the plateau and the jumps below x reuse the
same searches on the reflected family, whose special parameters are the
exact negations and whose tails are the family's, bit for bit. Whole-support
sweeps (``exact_coverage``, ``length_table``) warm-start each outcome's stage
one at the previous k_star, and read most lower ends off the staircase of
k_star, since pi(x, theta_{k,x}) = pi(k, theta_{k,x}) (``_sweep``). The
returned interval is the closed hull of the confidence set, so its coverage
is never below the nominal level.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

from . import family as _lattice
from .bounds import _bisect, _checked, _ci, _newton, _solve_decreasing_cdf
from .errors import DivergentSearch, UnboundedEnumeration
from .family import Distribution, LatticeFamily, _search, reflect, special_param

DEFAULT_DELTA = 1e-8


@dataclass(frozen=True)
class PValueEvaluation:
    """pi(x, eta) together with the piece that produced it.

    ``segment`` is the index k of the piece containing eta (k = x on the
    plateau, hi + 1 or lo - 1 past the last jump of a bounded side);
    ``at_jump`` flags eta lying exactly on a special parameter.
    """

    value: float
    segment: int
    at_jump: bool


@dataclass(frozen=True)
class SterneResult:
    """One confidence bound with the bracket that certified it.

    ``bound`` is the returned endpoint. For an upper bound it lies in
    [b, b + delta] where b is the exact endpoint, and ``achieved`` (the
    p-value at ``bound``, right limit at a jump) lies in [alpha - delta,
    alpha], unless delta is below the float spacing at b, where the bracket
    ends as two adjacent floats; mirrored for lower bounds. ``at_jump``
    marks endpoints returned exactly as a special parameter
    theta_{k_star, x}.
    """

    k_star: int | None
    bound: float
    bracket: tuple[float, float]
    bracket_pvalues: tuple[float, float]
    achieved: float
    at_jump: bool
    delta: float | None


def _clip(p: float) -> float:
    return min(1.0, max(0.0, p))


def _two_tails(d: Distribution, a: int, b: int) -> float:
    """P(X >= a) + P(X <= b), clipped to [0, 1]: the value of one piece of pi."""
    return _clip(d.sf(a) + d.cdf(b))


def sterne_pvalue(fam_or_model, x: int, eta: float) -> PValueEvaluation:
    """Evaluate pi(x, eta) through the piecewise form, x checked by ``_checked``.

    eta may be +/-inf where the matching support endpoint is finite; there pi is the pmf
    at x of the evaluator's point mass (the evaluator refuses it on an unbounded side). On
    the plateau it reads two special parameters; elsewhere one distribution and the piece search.
    """
    family, _, x = _checked(fam_or_model, x)
    lo, hi = family.support.lo, family.support.hi
    if math.isinf(eta):
        value = family.distribution(eta).pmf(x)
        return PValueEvaluation(value, int(hi) + 1 if eta > 0 else int(lo) - 1, False)

    t_lo = special_param(family, x, x - 1)
    t_hi = special_param(family, x, x + 1)
    if t_lo <= eta <= t_hi:
        return PValueEvaluation(1.0, x, eta == t_lo or eta == t_hi)

    d = family.distribution(eta)  # a nan eta raises here, not after a walk of the piece search
    # right of the plateau the piece search runs over k > x, left of it on the reflection, whose
    # theta_{-k,-x} is exactly -theta_{k,x}; ``seen`` holds the plateau edge, so none is read twice
    fam, s, edge = (family, 1, t_hi) if eta > t_hi else (reflect(family), -1, -t_lo)
    seen = {s * x + 1: edge}
    k = s * _first_jump(fam, s * x, s * eta, seen=seen)
    value = _two_tails(d, k, x) if k > x else _two_tails(d, x, k)
    return PValueEvaluation(value, k, seen[s * k] == s * eta)


def _first_jump(family: LatticeFamily, x: int, eta: float, strict: bool = False,
                seen: dict | None = None) -> int:
    """Smallest k > x with theta_{k,x} >= eta (> eta if ``strict``), or hi + 1; reads go to ``seen``."""
    seen = {} if seen is None else seen

    def past(k: int) -> bool:
        t = seen[k] = seen[k] if k in seen else special_param(family, x, k)
        return t > eta if strict else t >= eta

    return _search(past, x, +1, family.support.hi + 1, 1)


def _jumps_between(family: LatticeFamily, x: int, t_from: float, t_to: float) -> list[int]:
    """Each k with theta_{k,x} in [t_from, t_to], in theta order: a span of k above x
    ended by two piece searches, and the same span of the reflection at -x below it."""
    mirror = reflect(family)
    below = range(_first_jump(mirror, -x, -t_to), _first_jump(mirror, -x, -t_from, strict=True))
    above = range(_first_jump(family, x, t_from), _first_jump(family, x, t_to, strict=True))
    return [-j for j in reversed(below)] + list(above)


def _endpoint(k, lo: float, hi: float, p_lo: float, p_hi: float, delta: float,
              at_jump: bool = False) -> SterneResult:
    """The result for an upper endpoint certified by the bracket [lo, hi]."""
    return SterneResult(k, hi, (lo, hi), (p_lo, p_hi), p_hi, at_jump, delta)


def stage_one(family: LatticeFamily, x: int, alpha: float, start: int | None = None):
    """(k_star, d, J(k_star + 1)) for a checked family, x < max(X) and alpha: the
    largest k > x whose jump value J(k) = pi(x, theta_{k,x}) is still >= alpha, the
    distribution the search took at theta_{k_star,x} and the jump value it read at
    k_star + 1, each None where it took none. No other probe's distribution is kept.

    The jump values decrease in k, so this is one integer search for the first
    k whose jump value falls below alpha, minus one. It keeps a bracket of two
    probes, one >= alpha and one below (hi + 1 counts as one below), and ends
    when they are adjacent. The first probe is x + 2; each next one is
    floor(k'), plus one after a probe >= alpha, where k' (at most max(X)) is
    the Newton step on log J from the last probe, with J(k + 1) - J(k) ~
    (d/dtheta) pi_k (theta_{k+1,x} - theta_{k,x}) - f(k) read off its
    evaluation. Where log J is concave in k, as for the shipped models, the
    first step overshoots the crossing and the later ones converge from above.
    As in ``bounds._bisect`` a step is kept only if it lands strictly inside
    the bracket and moves less than half of the step before the last; else the
    bracket is bisected, or, with no probe below alpha yet on an unbounded
    side, the distance from x doubles. No probe passes x + ``family.STEP_CAP``,
    and one there still >= alpha raises DivergentSearch. A probe whose
    evaluation fails counts as past the crossing, and its error is raised if
    it ends the bracket.

    A warm search bets that k_star moved up by one from ``start``, the previous
    outcome's k_star: it probes s + 1, s = max(start, x + 1), and walks up from
    there by doubling steps while the jump value is >= alpha; else it probes s,
    and below alpha there too leaves the cold search a bracket closed at s. Any
    bracket ends on the cold k; a step of zero or one costs two evaluations.
    """
    hi, cap = family.support.hi, x + _lattice.STEP_CAP
    lo, up, d_lo, j_up, failed = x + 1, hi + 1, None, None, {}

    def probe(k: int):
        nonlocal lo, up, d_lo, j_up
        try:
            d = family.distribution(special_param(family, x, k))
            # pi(x, theta_{k,x}), where outcome k is still tied with x
            j = _two_tails(d, k, x)
        except (DivergentSearch, UnboundedEnumeration) as err:
            failed[k], d, j = err, None, 0.0
        if j < alpha:
            up, j_up = k, j
        else:
            lo, d_lo = k, d
        return d, j

    def below(k: int) -> bool:
        # pi(x, theta_{x+1,x}) = 1 on the plateau edge
        return k > hi or (k > x + 1 and probe(k)[1] < alpha)

    def newton(k: int, d: Distribution | None, j: float) -> int | None:
        if d is None or k == hi or up - lo == 1:
            return None
        dtheta = special_param(family, x, k + 1) - d.theta
        t = _newton(k, j, (d.sf_slope(k + 1) + d.cdf_slope(x)) * dtheta - d.pmf(k), alpha)
        if t is None or not t > lo:
            return None
        return min(math.floor(min(t, hi, cap)) + (j >= alpha), hi)

    # the gallop's probes read no slopes: entering the Newton loop at start instead took 64677
    # digest evaluations, not 64666, and audit rounds 1.04-1.14x as long (ab_rounds.py, 2 cores)
    if start is not None:
        s = max(start, x + 1)
        if not below(s + 1):
            _search(below, s + 1, +1, hi + 1, 1)
        else:
            below(s)
    k, before, last = x + 2, math.inf, math.inf
    while up - lo > 1:
        if lo == cap:
            raise DivergentSearch(f"the doubling search from x = {x} did not end")
        p = newton(k, *probe(k))
        if p is None or not lo < p < up or abs(p - k) >= 0.5 * before:
            p = (lo + up) // 2 if up < math.inf else x + 2 * (lo - x)
        before, last = last, abs(p - k)
        k = min(p, cap)
    if up in failed:
        raise failed[up]
    return lo, d_lo, j_up


def stage_two(family: LatticeFamily, x: int, k: int, alpha: float, delta: float,
              d: Distribution | None = None, p_hi: float | None = None):
    """(result, d at theta_{k,x}): the upper endpoint inside the piece following
    theta_{k,x}, for a checked family, x < k <= max(X), alpha and delta.

    On (theta_{k,x}, theta_{k+1,x}] the p-value equals
    pi_k(eta) = P_eta(X >= k + 1) + F_eta(x), and its limit from the right at
    theta_{k,x} is pi_k(theta_{k,x}). If that limit is already <= alpha the
    endpoint is the jump itself and is returned exactly. Past the last jump
    (k = max(X)) only F_eta(x) remains and the endpoint is the one-sided
    ``upper_bound``. Otherwise ``_bisect`` shrinks a bracket [b', b] with
    pi_k(b') > alpha >= pi_k(b) until both b - b' <= delta and
    pi_k(b') - pi_k(b) <= delta, or until b' and b are adjacent floats. Its
    Newton steps start from theta_{k,x} and use
    d pi_k / d eta = sum over y >= k + 1 and over y <= x of (y - E X) p_y.
    Given ``d`` and ``p_hi``, stage one's distribution at theta_{k,x} and
    J(k + 1) = pi_k(theta_{k+1,x}), it reads them instead of evaluating again.
    """

    def piece(t: float) -> float:
        nonlocal d
        d = family.distribution(t)
        return _two_tails(d, k + 1, x)

    def slope(t: float) -> float | None:
        return d.sf_slope(k + 1) + d.cdf_slope(x) if d.theta == t else None

    b_lo = special_param(family, x, k)
    p_lo = piece(b_lo) if d is None else _two_tails(d, k + 1, x)
    d_lo = d
    if p_lo <= alpha:
        return _endpoint(k, b_lo, b_lo, p_lo, p_lo, delta, at_jump=True), d_lo
    b_hi = special_param(family, x, k + 1)
    if math.isinf(b_hi):
        # pi_k = P(X >= max(X) + 1) + F(x) = F(x): the tail the one-sided solve certified
        b, p_b = _solve_decreasing_cdf(family, x, alpha)
        return _endpoint(k, b, b, p_b, p_b, delta), d_lo
    if p_hi is None:
        # evaluated apart from ``piece``, so that the Newton steps start from b_lo
        p_hi = _two_tails(family.distribution(b_hi), k + 1, x)
    b = _bisect(piece, b_lo, b_hi, p_lo, p_hi, alpha, delta, delta, slope)
    return _endpoint(k, *b, delta), d_lo


def _upper_result(family: LatticeFamily, x: int, alpha: float, delta: float,
                  start: int | None = None):
    """(result, d at theta_{k_star,x} or None at max(X)): ``stage_one``, warm-started at
    ``start`` (the k_star of a smaller outcome) when given, then ``stage_two``."""
    if x == family.support.hi:
        return _endpoint(None, math.inf, math.inf, 1.0, 1.0, delta), None
    k, d, p_hi = stage_one(family, x, alpha, start)
    return stage_two(family, x, k, alpha, delta, d, p_hi)


def _lower_result(family: LatticeFamily, x: int, alpha: float, delta: float) -> SterneResult:
    r = _upper_result(reflect(family), -x, alpha, delta)[0]
    return replace(r, k_star=None if r.k_star is None else -r.k_star, bound=-r.bound,
                   bracket=(-r.bracket[1], -r.bracket[0]), bracket_pvalues=r.bracket_pvalues[::-1])


def _sweep(family: LatticeFamily, xs, alpha: float, delta: float) -> dict[int, tuple[float, float]]:
    """{x: (theta_lo, theta_hi)} for every outcome in xs, as ``sterne_interval`` gives them.
    It checks nothing: its caller, ``coverage._bounds_of``, passes xs, alpha and delta checked.

    k*(x) is nondecreasing, so the upper ends run over ascending x with each
    stage one warm-started at the previous k*. The lower end of z is the upper
    end of -z on the reflection, whose jump value at -x is J(x; z) = P(X <= x)
    + P(X >= z) at theta_{z,x}: x and z are equally likely there, so they share
    one "no more probable" set (Sterne 1954). The reflection evaluates through
    the family read backwards, so its search reads the very doubles the upper
    search of x reads at k = z. J(x; k) falls in k and rises in x, so the
    reflected search lands on x* = the smallest x with k*(x) >= z. x* is
    certified when x* < z and x* - 1 was swept too, or x* is the support
    minimum. Then the lower end is the jump theta_{x*,z} if k*(x*) = z and q =
    P(X <= x* - 1) + P(X >= z) <= alpha at theta_{z,x*}, read off the upper
    search's distribution there, and else stage two alone finds it. Outcomes
    not certified (sparse xs) run the warm reflected search over descending z.
    """
    xs = sorted(set(xs))
    his, ks, qs, k = {}, [], [], None
    for x in xs:
        r, d = _upper_result(family, x, alpha, delta, k)
        his[x], k = r.bound, r.k_star
        # k* and q at z = k*; the outcome max(X) has no jump
        ks.append(k if d else math.inf)
        qs.append(_two_tails(d, k, x - 1) if d else None)
    mirror, los, k = reflect(family), {}, None
    for z in reversed(xs):
        i = bisect.bisect_left(ks, z)
        x = xs[i] if i < len(xs) else z
        certified = x < z and (x == family.support.lo or i > 0 and xs[i - 1] == x - 1)
        if certified and ks[i] == z and qs[i] <= alpha:
            los[z], k = special_param(family, x, z), -x
        else:
            r = (stage_two(mirror, -z, -x, alpha, delta) if certified
                 else _upper_result(mirror, -z, alpha, delta, k))[0]
            los[z], k = -r.bound, r.k_star
    return {x: (los[x], his[x]) for x in xs}


def sterne_upper(fam_or_model, x: int, alpha: float, delta: float = DEFAULT_DELTA) -> float:
    """Upper endpoint of the Sterne confidence set (+inf at the support max)."""
    family, _, x, alpha, delta = _checked(fam_or_model, x, alpha, delta)
    return _upper_result(family, x, alpha, delta)[0].bound


def sterne_lower(fam_or_model, x: int, alpha: float, delta: float = DEFAULT_DELTA) -> float:
    """Lower endpoint of the Sterne confidence set (-inf at the support min)."""
    family, _, x, alpha, delta = _checked(fam_or_model, x, alpha, delta)
    return _lower_result(family, x, alpha, delta).bound


def sterne_interval(fam_or_model, x: int, alpha: float, delta: float = DEFAULT_DELTA):
    """Closed hull of {eta : pi(x, eta) > alpha} on both parameter scales."""
    family, to_natural, x, alpha, delta = _checked(fam_or_model, x, alpha, delta)
    lo = _lower_result(family, x, alpha, delta)
    hi = _upper_result(family, x, alpha, delta)[0]
    return _ci("sterne", alpha, to_natural, lo.bound, hi.bound, lo.achieved, hi.achieved, delta)


def jump_limits(fam_or_model, x: int, k: int) -> tuple[float, float, float]:
    """(theta_{k,x}, left limit, right limit) of pi(x, .) at the jump.

    For k > x the left limit equals the value at the point; for k < x the
    right limit does, read as the jump at -k of the reflection at -theta.
    """
    family, _, x = _checked(fam_or_model, x)
    t = special_param(family, x, k)
    s = 1 if k > x else -1
    fam, x, k = (family, x, int(k)) if s > 0 else (reflect(family), -x, -int(k))
    d = fam.distribution(s * t)
    left, right = (_two_tails(d, k, x) if k > x + 1 else 1.0), _two_tails(d, k + 1, x)
    return (t, left, right) if s > 0 else (t, right, left)
