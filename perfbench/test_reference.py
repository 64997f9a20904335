"""Pins the benchmark's reference module to values computed apart from exactci.

Run with ``python -m pytest perfbench/test_reference.py`` from the repository
root. The pinned decimals come from the closed forms quoted in each test and
can be regenerated with the commands in ``perfbench/README.md``.
"""

import math
import os
import sys

import mpmath
import numpy as np
import pytest
from scipy import special

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402

BIN20 = ref.Spec("binomial", n=20)
POIS = ref.Spec("poisson")
OR_CC = ref.Spec("oddsratio", n1=49, n2=317, s=245)


def logit(p):
    return math.log(p) - math.log1p(-p)


def test_clopper_pearson_binomial_n20_x5():
    lo, hi = ref.cp_natural(BIN20, 5, 0.05)
    assert lo == pytest.approx(0.08657, abs=1e-5)
    assert hi == pytest.approx(0.49104, abs=1e-5)


def test_clopper_pearson_poisson_x3():
    lo, hi = ref.cp_natural(POIS, 3, 0.05)
    assert lo == pytest.approx(0.6187, abs=1e-4)
    assert hi == pytest.approx(8.7673, abs=1e-4)


def test_clopper_pearson_odds_ratio_case_control_table():
    lo, hi = ref.cp_natural(OR_CC, 42, 0.05)
    assert lo == pytest.approx(1.4333, abs=1e-4)
    assert hi == pytest.approx(9.1593, abs=1e-4)


def test_support_edges_give_natural_limits():
    assert ref.cp_natural(BIN20, 0, 0.05)[0] == 0.0
    assert ref.cp_natural(BIN20, 20, 0.05)[1] == 1.0
    assert ref.cp_natural(POIS, 0, 0.05)[0] == 0.0


def mp_binom_cdf(n, x, p):
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        return sum(mpmath.binomial(n, y) * p**y * (1 - p) ** (n - y) for y in range(x + 1))


@pytest.mark.parametrize("alpha", [0.05, 1e-6, 1e-15])
def test_binomial_bounds_solve_their_tail_equations_in_mpmath(alpha):
    n, x = 20, 5
    hi = ref.bound_natural(BIN20, x, alpha, "upper")
    lo = ref.bound_natural(BIN20, x, alpha, "lower")
    assert float(mp_binom_cdf(n, x, hi)) == pytest.approx(alpha, rel=1e-9)
    assert float(1 - mp_binom_cdf(n, x - 1, lo)) == pytest.approx(alpha, rel=1e-9)


def test_poisson_bounds_solve_their_tail_equations_in_mpmath():
    x, a = 3, 0.025
    hi = ref.bound_natural(POIS, x, a, "upper")
    lo = ref.bound_natural(POIS, x, a, "lower")
    with mpmath.workdps(50):
        left = sum(mpmath.exp(-hi) * mpmath.mpf(hi) ** y / mpmath.factorial(y) for y in range(x + 1))
        below = sum(mpmath.exp(-lo) * mpmath.mpf(lo) ** y / mpmath.factorial(y) for y in range(x))
    assert float(left) == pytest.approx(a, rel=1e-9)
    assert float(1 - below) == pytest.approx(a, rel=1e-9)


def test_tail_functions_match_mpmath():
    eta = logit(0.3)
    assert ref.cdf(BIN20, 5, eta) == pytest.approx(float(mp_binom_cdf(20, 5, 0.3)), rel=1e-12)
    assert ref.sf(BIN20, 6, eta) == pytest.approx(float(1 - mp_binom_cdf(20, 5, 0.3)), rel=1e-12)
    # mirrored evaluation on the other side of eta = 0
    eta = logit(0.9)
    assert ref.cdf(BIN20, 15, eta) == pytest.approx(float(mp_binom_cdf(20, 15, 0.9)), rel=1e-10)


def test_odds_ratio_tails_sum_to_one():
    eta = math.log(3.0)
    for x in (30, 42, 49):
        assert ref.cdf(OR_CC, x, eta) + ref.sf(OR_CC, x + 1, eta) == pytest.approx(1.0, abs=1e-13)


def test_sterne_pvalue_around_the_binomial_upper_endpoint():
    # binomial n = 20, x = 5, alpha = 0.05: the upper endpoint is the jump at p = 0.474569...
    above = logit(0.474569 * (1 + 1e-6))
    below = logit(0.474569 * (1 - 1e-6))
    for pi in (ref.pi_mp, ref.pi_log):
        assert pi(BIN20, 5, above) == pytest.approx(0.0466, abs=1e-4)
        assert pi(BIN20, 5, below) == pytest.approx(0.0706, abs=1e-4)


def direct_pi(spec, x, eta):
    """Naive definition at 60 digits, one binomial coefficient per term."""
    with mpmath.workdps(60):
        lo, hi = spec.support()
        ys = range(lo, hi + 1)
        if spec.kind == "binomial":
            p = 1 / (1 + mpmath.exp(-mpmath.mpf(eta)))
            f = {y: mpmath.binomial(spec.n, y) * p**y * (1 - p) ** (spec.n - y) for y in ys}
        else:
            r = mpmath.exp(mpmath.mpf(eta))
            w = {y: mpmath.binomial(spec.n1, y) * mpmath.binomial(spec.n2, spec.s - y) * r**y
                 for y in ys}
            total = sum(w.values())
            f = {y: v / total for y, v in w.items()}
        return float(sum(v for v in f.values() if v <= f[x]))


@pytest.mark.parametrize(
    "spec,x,natural",
    [(BIN20, 5, 0.2), (BIN20, 5, 0.61), (ref.Spec("binomial", n=300), 77, 0.31),
     (OR_CC, 42, 1.7), (OR_CC, 42, 8.5)],
)
def test_sterne_pvalue_matches_high_precision_definition(spec, x, natural):
    eta = spec.to_theta(natural)
    want = direct_pi(spec, x, eta)
    assert ref.pi_mp(spec, x, eta) == pytest.approx(want, rel=1e-14)
    assert ref.pi_log(spec, x, eta) == pytest.approx(want, rel=1e-9)


def test_poisson_sterne_pvalue_matches_high_precision_definition():
    eta = math.log(7.5)
    with mpmath.workdps(60):
        lam = mpmath.mpf(7.5)
        f = [mpmath.exp(-lam) * lam**y / mpmath.factorial(y) for y in range(400)]
        want = float(sum(v for v in f if v <= f[3]))
    assert ref.pi_mp(POIS, 3, eta) == pytest.approx(want, rel=1e-14)
    assert ref.pi_log(POIS, 3, eta) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("spec,x,k", [(BIN20, 5, 2), (BIN20, 5, 9), (OR_CC, 42, 45)])
def test_pvalue_without_k_is_the_limit_away_from_the_plateau(spec, x, k):
    # past theta_{k,x}, away from the plateau, k is more likely than x and leaves the sum
    t = ref.special_param(spec, x, k)
    step = 1e-12 * max(1.0, abs(t)) * (1 if k > x else -1)
    far, near = direct_pi(spec, x, t + step), direct_pi(spec, x, t - step)
    for pi in (ref.pi_mp, ref.pi_log):
        assert pi(spec, x, t, exclude=(k,)) == pytest.approx(far, rel=1e-9)
    drop = float(ref.pmf(spec, t, [k])[0])
    assert ref.pi_mp(spec, x, t, exclude=(k,)) + drop == pytest.approx(near, rel=1e-9)


def test_large_support_log_space_agrees_with_mpmath():
    spec = ref.Spec("binomial", n=2500)
    eta = logit(0.303)
    assert ref.pi_log(spec, 740, eta) == pytest.approx(ref.pi_mp(spec, 740, eta), rel=1e-9)
    eta = math.log(2000.0)
    assert ref.pi_log(POIS, 2100, eta) == pytest.approx(ref.pi_mp(POIS, 2100, eta), rel=1e-9)


def test_plateau_is_where_the_pvalue_is_one():
    # binomial plateau of x is x / (n + 1) <= p <= (x + 1) / (n + 1)
    lo, hi = ref.plateau(BIN20, 5)
    assert special.expit(lo) == pytest.approx(5 / 21, rel=1e-12)
    assert special.expit(hi) == pytest.approx(6 / 21, rel=1e-12)
    assert ref.pi_mp(BIN20, 5, logit(5.5 / 21)) == 1.0
    assert ref.pi_mp(BIN20, 5, logit(6.5 / 21)) < 1.0
    # Poisson plateau of x is x <= lambda <= x + 1
    lo, hi = ref.plateau(POIS, 3)
    assert math.exp(lo) == pytest.approx(3.0, rel=1e-12)
    assert math.exp(hi) == pytest.approx(4.0, rel=1e-12)


def test_coverage_recomputation_by_hand():
    # n = 2, p = 1/2: outcomes 0, 1, 2 have mass 1/4, 1/2, 1/4
    spec = ref.Spec("binomial", n=2)
    xs = [0, 1, 2]
    inf = math.inf
    assert ref.coverage(spec, 0.0, xs, [-inf] * 3, [inf] * 3) == pytest.approx((1.0, 1.0))
    assert ref.coverage(spec, 0.0, xs, [1.0, -1.0, 1.0], [2.0, 1.0, 2.0]) == pytest.approx((0.5, 0.5))
    # an endpoint at eta counts only in the upper value once a tolerance is given
    lower, upper = ref.coverage(spec, 0.0, xs, [0.0, -1.0, 1.0], [2.0, 1.0, 2.0], tol=1e-12)
    assert (lower, upper) == pytest.approx((0.5, 0.75))


def test_windows_cover_the_mass():
    spec = ref.Spec("binomial", n=10**6)
    eta = logit(0.3)
    ys = ref.window(spec, eta)
    assert ys[0] > 0 and ys[-1] < 10**6
    # scipy's logpmf itself is good to about 1e-9 relative at n = 1e6
    assert np.exp(special.logsumexp(ref.logpmf(spec, eta, ys))) == pytest.approx(1.0, rel=1e-9)
    ys = ref.window(POIS, math.log(1e6))
    assert np.exp(special.logsumexp(ref.logpmf(POIS, math.log(1e6), ys))) == pytest.approx(1.0, rel=1e-9)
    # the whole support would add nothing the window misses
    full = np.arange(10**6 + 1)
    assert special.logsumexp(ref.logpmf(spec, eta, full)) == pytest.approx(
        special.logsumexp(ref.logpmf(spec, eta, ref.window(spec, eta))), abs=1e-15)
