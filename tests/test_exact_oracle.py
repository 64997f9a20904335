"""Every returned end is conservative against tails computed exactly.

The oracles work in mpmath at 50 digits from the returned float theta, with
no part of exactci: the regularized incomplete beta and gamma functions for
the binomial and Poisson tails, and direct sums of the exact weights for the
odds ratio and for Sterne's p-value. An upper end b of outcome x is
conservative when P_b(X <= x) is at most its level (alpha / 2 for
Clopper-Pearson, alpha for a one-sided bound); a lower end a when P_a(X >= x)
is. A Sterne upper end is conservative when no theta above it has a p-value
above alpha.
"""

import math

import mpmath
import pytest
from mpmath import mpf

from exactci import clopper_pearson, make_binomial, make_odds_ratio, make_poisson, one_sided_interval
from exactci.sterne import sterne_interval

ALPHAS = (1e-15, 1e-6, 0.01, 0.05, 0.5)
DPS = 50


def binomial_tails(n):
    def tails(theta, x):  # (P(X <= x), P(X >= x)) at p = 1 / (1 + exp(-theta))
        p = 1 / (1 + mpmath.exp(-mpf(theta)))
        left = mpmath.betainc(n - x, x + 1, 0, 1 - p, regularized=True) if x < n else mpf(1)
        right = mpmath.betainc(x, n - x + 1, 0, p, regularized=True) if x > 0 else mpf(1)
        return left, right
    return tails


def poisson_tails(theta, x):  # at lambda = exp(theta)
    lam = mpmath.exp(mpf(theta))
    right = mpmath.gammainc(x, 0, lam, regularized=True) if x > 0 else mpf(1)
    return mpmath.gammainc(x + 1, lam, mpmath.inf, regularized=True), right


class Weights:
    """A family with exact weights w_y on the integers ys, summed directly."""

    def __init__(self, ys, log_w):
        self.ys, self.log_w = list(ys), list(log_w)

    def pmf(self, theta):
        g = [lw + theta * y for y, lw in zip(self.ys, self.log_w)]
        top = max(g)
        e = [mpmath.exp(v - top) for v in g]
        total = mpmath.fsum(e)
        return [v / total for v in e]

    def tails(self, theta, x):
        p = self.pmf(mpf(theta))
        return (mpmath.fsum(q for y, q in zip(self.ys, p) if y <= x),
                mpmath.fsum(q for y, q in zip(self.ys, p) if y >= x))

    def mirror(self):
        return Weights([-y for y in reversed(self.ys)], reversed(self.log_w))


def comb_weights(n):
    return Weights(range(n + 1), [mpmath.log(math.comb(n, y)) for y in range(n + 1)])


def odds_ratio_weights(n1, n2, s):
    ys = range(max(0, s - n2), min(n1, s) + 1)
    return Weights(ys, [mpmath.log(math.comb(n1, y) * math.comb(n2, s - y)) for y in ys])


def bound_cases():
    for n in (1, 2, 10, 50, 200, 1000):
        for x in sorted({0, 1, n // 3, n - 1, n}):
            yield f"binomial {n}", make_binomial(n), binomial_tails(n), x
    for x in (0, 1, 3, 30, 10**4):
        yield "poisson", make_poisson(), poisson_tails, x
    weights = odds_ratio_weights(49, 317, 245)
    for x in (0, 1, 20, 42, 48, 49):
        yield "odds ratio 49/317/245", make_odds_ratio(49, 317, 245), weights.tails, x


CASES = list(bound_cases())


@pytest.mark.parametrize("name, model, tails, x", CASES, ids=[f"{c[0]}, x={c[3]}" for c in CASES])
def test_clopper_pearson_and_one_sided_ends(name, model, tails, x):
    with mpmath.workdps(DPS):
        for alpha in ALPHAS:
            ends = [(clopper_pearson(model, x, alpha), alpha / 2)]
            ends += [(one_sided_interval(model, x, alpha, side), alpha) for side in ("lower", "upper")]
            for ci, level in ends:
                if math.isfinite(ci.theta_hi):
                    assert tails(ci.theta_hi, x)[0] <= level, (ci.method, alpha, "upper", ci.theta_hi)
                if math.isfinite(ci.theta_lo):
                    assert tails(ci.theta_lo, x)[1] <= level, (ci.method, alpha, "lower", ci.theta_lo)


def sterne_upper_is_conservative(w: Weights, x, alpha, b):
    """No theta above b has pi(x, theta) > alpha, with exact jumps and tails.

    The jump theta_k of k > x is where f(k) = f(x); there pi is the jump value
    J(k) = P(X >= k) + P(X <= x), which falls in k, and on (theta_k,
    theta_{k+1}] it is the falling piece P(X >= k + 1) + P(X <= x). So with k*
    the last k whose J(k) > alpha, the confidence set ends in k*'s piece, or
    at theta_k* itself where the piece starts at or below alpha, or at the
    root of P(X <= x) = alpha past the last jump.
    """
    i = w.ys.index(x)
    jump = lambda j: (w.log_w[i] - w.log_w[j]) / (w.ys[j] - x)

    def piece(t, j):  # P(X >= the j-th point) + P(X <= x) at t
        p = w.pmf(t)
        return mpmath.fsum(p[j:]) + mpmath.fsum(p[: i + 1])

    lo, hi = i + 1, len(w.ys)  # J(lo) = 1 on the plateau edge; J(hi) stands for none
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if piece(jump(mid), mid) > alpha else (lo, mid)
    k, t = lo, jump(lo)  # past the last jump the piece is P(X <= x) alone
    if piece(t, k + 1) <= alpha:
        # the end is the jump itself, which the float jump misses by the rounding of
        # two float log weights (4 ulps each) over k - x and of the quotient
        ulps = sum(math.ulp(float(w.log_w[j])) for j in (i, k))
        return b >= t - 4 * ulps / (w.ys[k] - x) - 2 * math.ulp(float(t))
    return t < b and piece(b, k + 1) <= alpha


@pytest.mark.parametrize("n", [1, 2, 7, 20, 50])
def test_sterne_ends(n):
    model, w = make_binomial(n), comb_weights(n)
    xs = range(n + 1) if n <= 20 else (0, 1, 2, 10, 25, 37, 48, 49, 50)
    with mpmath.workdps(DPS):
        mirror = w.mirror()
        for alpha in (1e-15, 1e-6, 0.05, 0.5):
            for x in xs:
                ci = sterne_interval(model, x, alpha)
                if x < n:
                    assert sterne_upper_is_conservative(w, x, alpha, ci.theta_hi), (x, alpha, "upper")
                if x > 0:
                    assert sterne_upper_is_conservative(mirror, -x, alpha, -ci.theta_lo), (x, alpha, "lower")
