import math

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import beta, gamma

from exactci import (
    BadAlpha,
    LatticeFamily,
    LatticeSupport,
    OutOfSupport,
    UnboundedEnumeration,
    clopper_pearson,
    lower_bound,
    make_binomial,
    make_poisson,
    one_sided_interval,
    pvalue_left,
    pvalue_right,
    pvalue_two,
    upper_bound,
)
from exactci.bounds import _bisect

ALPHAS = (0.025, 0.05, 0.2)


class TestQuantileOracles:
    """Closed-form quantile identities for the two textbook families.

    The binomial bound at level alpha is a beta quantile and the Poisson
    bound a gamma quantile; both give an independent root for the cdf
    equation the solver targets.
    """

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_binomial_upper(self, bin12, bin20, alpha):
        for model, n in ((bin12, 12), (bin20, 20)):
            for x in range(n):
                want = beta.ppf(1.0 - alpha, x + 1, n - x)
                got = model.to_natural(upper_bound(model, x, alpha))
                assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_binomial_lower(self, bin12, bin20, alpha):
        for model, n in ((bin12, 12), (bin20, 20)):
            for x in range(1, n + 1):
                want = beta.ppf(alpha, x, n - x + 1)
                got = model.to_natural(lower_bound(model, x, alpha))
                assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_poisson_upper(self, pois, alpha):
        for x in range(16):
            want = gamma.ppf(1.0 - alpha, x + 1)
            got = pois.to_natural(upper_bound(pois, x, alpha))
            assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_poisson_lower(self, pois, alpha):
        for x in range(1, 16):
            want = gamma.ppf(alpha, x)
            got = pois.to_natural(lower_bound(pois, x, alpha))
            assert got == pytest.approx(want, abs=1e-8)


class TestTailPValues:
    def test_fair_coin_center(self, bin2):
        assert pvalue_left(bin2, 1, 0.0) == pytest.approx(0.75, abs=1e-14)
        assert pvalue_right(bin2, 1, 0.0) == pytest.approx(0.75, abs=1e-14)
        assert pvalue_two(bin2, 1, 0.0) == 1.0  # capped

    def test_extreme_outcome(self, bin20):
        assert pvalue_left(bin20, 20, 0.0) == 1.0
        assert pvalue_right(bin20, 20, 0.0) == pytest.approx(2.0**-20, rel=1e-12)

    def test_point_mass_parameters(self, bin20):
        assert pvalue_left(bin20, 5, math.inf) == 0.0
        assert pvalue_right(bin20, 5, -math.inf) == 0.0
        assert pvalue_left(bin20, 20, math.inf) == 1.0

    def test_out_of_support(self, bin20):
        with pytest.raises(OutOfSupport):
            pvalue_left(bin20, 21, 0.0)


class TestBoundEdges:
    def test_support_maximum_gives_inf(self, bin20):
        assert upper_bound(bin20, 20, 0.05) == math.inf

    def test_support_minimum_gives_neg_inf(self, bin20, pois, or_big):
        assert lower_bound(bin20, 0, 0.05) == -math.inf
        assert lower_bound(pois, 0, 0.05) == -math.inf
        assert lower_bound(or_big, 0, 0.05) == -math.inf

    def test_out_of_support(self, bin20):
        with pytest.raises(OutOfSupport):
            upper_bound(bin20, 21, 0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 2.0, float("nan"), "0.05"])
    def test_bad_alpha(self, bin20, alpha):
        with pytest.raises(BadAlpha):
            upper_bound(bin20, 5, alpha)


class TestMonotonicity:
    def test_upper_bound_increases_in_x(self, bin20):
        bounds = [upper_bound(bin20, x, 0.05) for x in range(21)]
        assert bounds[-1] == math.inf
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_upper_bound_increases_as_alpha_shrinks(self, pois):
        b = [upper_bound(pois, 4, a) for a in (0.2, 0.05, 0.01)]
        assert b[0] < b[1] < b[2]

    def test_lower_bound_increases_in_x(self, or_big):
        bounds = [lower_bound(or_big, x, 0.05) for x in range(50)]
        assert bounds[0] == -math.inf
        assert all(a < b for a, b in zip(bounds, bounds[1:]))


class TestDuality:
    """The bounds invert the tail tests: at the bound, the tail equals alpha."""

    def test_random_cases(self, bin12, bin20, pois, or_big, or_small, rng):
        models = [bin12, bin20, pois, or_big, or_small]
        checked = 0
        while checked < 200:
            model = models[int(rng.integers(len(models)))]
            fam = model.family
            lo, hi = fam.support.lo, fam.support.hi
            x = int(rng.integers(int(lo), int(hi if fam.support.bounded else 30) + 1))
            alpha = float(rng.uniform(0.005, 0.3))
            if x < hi:
                b = upper_bound(fam, x, alpha)
                assert pvalue_left(fam, x, b) == pytest.approx(alpha, abs=1e-8)
            if x > lo:
                a = lower_bound(fam, x, alpha)
                assert pvalue_right(fam, x, a) == pytest.approx(alpha, abs=1e-8)
            checked += 1


class TestClopperPearson:
    def test_binomial_worked_case(self, bin20):
        ci = clopper_pearson(bin20, 5, 0.05)
        assert ci.method == "clopper_pearson"
        assert ci.natural_lo == pytest.approx(0.08657146910225158, abs=1e-9)
        assert ci.natural_hi == pytest.approx(0.4910458717016522, abs=1e-9)

    def test_zero_successes_closed_form(self, bin20):
        ci = clopper_pearson(bin20, 0, 0.05)
        assert ci.theta_lo == -math.inf
        assert ci.natural_lo == 0.0
        assert ci.natural_hi == pytest.approx(1.0 - 0.025 ** (1 / 20), abs=1e-10)

    def test_poisson_zero_closed_form(self, pois):
        ci = clopper_pearson(pois, 0, 0.05)
        assert ci.natural_lo == 0.0
        assert ci.natural_hi == pytest.approx(-math.log(0.025), abs=1e-8)

    def test_endpoint_pvalues_hit_alpha(self, pois, or_big):
        for model, x in ((pois, 3), (or_big, 42)):
            ci = clopper_pearson(model, x, 0.05)
            assert ci.pvalue_lo == pytest.approx(0.05, abs=2e-8)
            assert ci.pvalue_hi == pytest.approx(0.05, abs=2e-8)

    def test_odds_ratio_worked_case(self, or_big):
        ci = clopper_pearson(or_big, 42, 0.05)
        assert ci.natural_lo == pytest.approx(1.4332626889714744, abs=1e-8)
        assert ci.natural_hi == pytest.approx(9.159330993052095, abs=1e-8)

    def test_tiny_alpha_matches_beta_quantiles(self, bin20):
        # 1 - alpha keeps no digits of alpha = 1e-15, so both ends solve a
        # tail equation summed from its far end and stop on the safe side
        alpha = 1e-15
        ci = clopper_pearson(bin20, 5, alpha)
        assert ci.natural_hi == pytest.approx(0.948989504591, abs=1e-11)
        assert ci.natural_hi == pytest.approx(beta.isf(alpha / 2, 6, 15), rel=1e-10)
        assert ci.natural_lo == pytest.approx(beta.ppf(alpha / 2, 5, 16), rel=1e-9)
        assert pvalue_left(bin20, 5, ci.theta_hi) <= alpha / 2
        assert pvalue_right(bin20, 5, ci.theta_lo) <= alpha / 2

    def test_huge_theta_ends_on_adjacent_floats(self):
        # theta near 1e7 has a float spacing of 1.9e-9, above THETA_TOL, so
        # the bisection must stop when the bracket holds no float inside
        fam = LatticeFamily(LatticeSupport(0, 40), lambda xs: -1e6 * xs**2)
        ci = clopper_pearson(fam, 5, 0.05)
        # the plateau of x = 5 is [9e6, 1.1e7]
        assert 8.9e6 < ci.theta_lo < 9e6 and 1.1e7 < ci.theta_hi < 1.11e7
        assert pvalue_left(fam, 5, ci.theta_hi) <= 0.025
        assert pvalue_right(fam, 5, ci.theta_lo) <= 0.025

    def test_unknown_keyword_rejected(self, bin20):
        with pytest.raises(TypeError):
            clopper_pearson(bin20, 5, 0.05, dleta=1e-8)

    def test_poisson_million_brackets_without_overshoot(self):
        # the bracket grows from the plateau width (1e-6 here), so it never
        # asks for a rate whose window passes the enumeration cap
        ci = clopper_pearson(make_poisson(), 10**6, 0.05)
        assert ci.natural_lo == pytest.approx(gamma.ppf(0.025, 10**6), rel=1e-9)
        assert ci.natural_hi == pytest.approx(gamma.isf(0.025, 10**6 + 1), rel=1e-9)
        assert (ci.natural_lo, ci.natural_hi) == pytest.approx((998040.98, 1001961.91), abs=0.01)

    def test_binomial_million_matches_beta_quantiles(self):
        n, x = 10**6, 3 * 10**5
        ci = clopper_pearson(make_binomial(n), x, 0.05)
        assert ci.natural_lo == pytest.approx(beta.ppf(0.025, x, n - x + 1), rel=1e-9)
        assert ci.natural_hi == pytest.approx(beta.isf(0.025, x + 1, n - x), rel=1e-9)


class TestOneSidedIntervals:
    def test_upper_side_structure(self, bin20):
        ci = one_sided_interval(bin20, 5, 0.05, side="upper")
        assert ci.theta_lo == -math.inf
        assert ci.natural_lo == 0.0
        assert ci.theta_hi == upper_bound(bin20, 5, 0.05)
        assert ci.pvalue_hi == pytest.approx(0.05, abs=1e-8)
        assert ci.pvalue_lo == 1.0  # left tail under the point mass at 0

    def test_lower_side_structure(self, bin20):
        ci = one_sided_interval(bin20, 5, 0.05, side="lower")
        assert ci.theta_hi == math.inf
        assert ci.natural_hi == 1.0
        assert ci.pvalue_lo == pytest.approx(0.05, abs=1e-8)
        assert ci.pvalue_hi == 1.0  # right tail under the point mass at 20

    def test_poisson_upper_pvalue_inadmissible(self, pois):
        # theta = +inf is not a distribution here, so no endpoint p-value
        ci = one_sided_interval(pois, 3, 0.05, side="lower")
        assert ci.theta_hi == math.inf
        assert ci.natural_hi == math.inf
        assert ci.pvalue_hi is None
        assert ci.pvalue_lo == pytest.approx(0.05, abs=1e-8)

    def test_bad_side(self, bin20):
        with pytest.raises(ValueError):
            one_sided_interval(bin20, 5, 0.05, side="both")


class TestOneSidedCoverage:
    def test_upper_intervals_cover_everywhere(self):
        # direct enumeration: coverage of (-inf, b(x)] is sum of pmf over
        # outcomes whose bound clears eta
        model = make_binomial(25)
        fam = model.family
        alpha = 0.1
        bounds = np.asarray([upper_bound(fam, x, alpha) for x in range(26)])
        lo, hi = model.from_natural(0.001), model.from_natural(0.999)
        grid = list(np.linspace(lo, hi, 501)) + [b for b in bounds if math.isfinite(b)]
        for eta in grid:
            d = fam.distribution(float(eta))
            cov = float(d.pmf_values[bounds >= eta].sum())
            assert cov >= 1.0 - alpha - 1e-9


class TestBisect:
    def test_stops_when_no_float_is_left_inside(self):
        lo, hi = 2.0**30, 2.0**30 + 1.0
        got = _bisect(lambda t: -t, lo, hi, -lo, -hi, -(lo + 0.3), 1e-12, math.inf)
        b_lo, b_hi, f_lo, f_hi = got
        assert b_hi == np.nextafter(b_lo, math.inf)
        assert f_lo > -(lo + 0.3) >= f_hi == -b_hi

    def test_gap_keeps_halving_a_narrow_bracket(self):
        # the width is already below tol; the f gap alone drives the halving
        f = lambda t: -1e6 * t
        b_lo, b_hi, f_lo, f_hi = _bisect(f, 0.0, 1e-3, 0.0, -1e3, -500.0, 1.0, 1e-3)
        assert f_lo - f_hi <= 1e-3
        assert f_lo > -500.0 >= f_hi


class TestCdfSolverBrackets:
    def test_upper_bound_grows_the_bracket_downward(self, bin20):
        # F(5) at the left end of the plateau of 5 is 0.665 < 0.9, so the
        # bracket must grow below the plateau
        q = beta.isf(0.9, 6, 15)
        want = math.log(q) - math.log1p(-q)
        b = upper_bound(bin20, 5, 0.9)
        assert 0.0 <= b - want <= 1e-10

    def test_lower_bound_grows_the_bracket_upward(self, bin20):
        # the mirror image: 20 - X is binomial with the negated log-odds
        q = beta.isf(0.9, 6, 15)
        want = -(math.log(q) - math.log1p(-q))
        a = lower_bound(bin20, 15, 0.9)
        assert 0.0 <= want - a <= 1e-10

    @pytest.fixture
    def negbin(self):
        """Weights C(k + 2, k) on 0, 1, ...; they sum only for theta < 0."""
        return LatticeFamily(
            LatticeSupport(0, math.inf),
            lambda xs: gammaln(np.asarray(xs, dtype=float) + 3.0) - gammaln(np.asarray(xs) + 1.0),
        )

    @pytest.mark.parametrize("x, alpha", [(1, 1e-6), (5, 0.05), (20, 0.01)])
    def test_negative_binomial_clopper_pearson(self, negbin, x, alpha):
        # upper-bracket probes at or near theta = 0 fail and count as past
        # the crossing, so both ends solve their tail equations
        ci = clopper_pearson(negbin, x, alpha)
        assert ci.theta_lo < ci.theta_hi < 0.0

        def pmf(ks, theta):
            ks = np.asarray(ks, dtype=float)
            log_norm = 3.0 * math.log1p(-math.exp(theta))
            return np.exp(gammaln(ks + 3.0) - gammaln(ks + 1.0) - gammaln(3.0) + log_norm + ks * theta)

        left = float(pmf(np.arange(x + 1), ci.theta_hi).sum())
        right = float(pmf(np.arange(x, x + 5000), ci.theta_lo).sum())
        for tail in (left, right):
            assert tail <= alpha / 2
            assert tail == pytest.approx(alpha / 2, rel=1e-6)

    def test_negative_binomial_crossing_past_the_window_cap(self, negbin):
        # at alpha = 1e-15 the upper end lies where every window passes the
        # cap, so the search returns a failed probe and raises its error
        with pytest.raises(UnboundedEnumeration):
            upper_bound(negbin, 5, 1e-15)
