import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln, logsumexp
from scipy.stats import beta, gamma

from exactci import (
    BadAlpha,
    DivergentSearch,
    LatticeFamily,
    LatticeSupport,
    NotLogConcave,
    OutOfSupport,
    UnboundedEnumeration,
    clopper_pearson,
    lower_bound,
    make_binomial,
    make_odds_ratio,
    make_poisson,
    one_sided_interval,
    pvalue_left,
    pvalue_right,
    pvalue_two,
    upper_bound,
)
from exactci.bounds import THETA_TOL, _bisect
from exactci.family import plateau
from oracles import count_evaluations
from test_sterne import harmonic_family, negative_binomial

ALPHAS = (0.025, 0.05, 0.2)


def floored(family, floor, fail):
    """A custom family with the weights of ``family`` that, below theta = floor,
    raises UnboundedEnumeration (``fail``) or gives the distribution at the floor."""

    class Floored(LatticeFamily):
        def distribution(self, theta):
            if fail and theta < floor:
                raise UnboundedEnumeration(f"theta = {theta} is below the floor")
            return super().distribution(max(theta, floor))

    return Floored(family.support, family.log_weight)


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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 2.0, float("nan"), "0.05", None, True,
                                       False, np.bool_(True), np.float32(1.5)])
    def test_bad_alpha(self, bin20, alpha):
        with pytest.raises(BadAlpha):
            upper_bound(bin20, 5, alpha)

    @pytest.mark.parametrize("alpha", [np.float32(0.05), np.float16(0.25), np.float64(0.05)])
    def test_numpy_alpha_accepted(self, bin20, alpha):
        assert clopper_pearson(bin20, 5, alpha) == clopper_pearson(bin20, 5, float(alpha))
        assert lower_bound(bin20, 5, alpha) == lower_bound(bin20, 5, float(alpha))


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

    def test_failed_growth_probe_is_retried_half_as_far(self, monkeypatch):
        # the harmonic family sums only for theta < 1; in its reflection the
        # bracket grows down from the plateau of -1, [-0.5, 0], and the first
        # probe lands next to theta = -1, where the evaluation fails; that
        # must not end the search
        calls = count_evaluations(monkeypatch)
        a = lower_bound(harmonic_family(), 1, 0.9)
        assert 0.5 < a < 0.9 and min(calls) < -1.0 + 1e-15
        x = np.arange(0.0, 5000.0)
        log_terms = -x + digamma(x + 1.0) + np.euler_gamma + a * x
        tail = math.exp(logsumexp(log_terms[1:]) - logsumexp(log_terms))  # P(X >= 1)
        assert tail <= 0.9
        assert tail == pytest.approx(0.9, rel=1e-6)

    def test_growth_probes_failing_down_to_no_step_raise(self, bin20):
        # F(5) reaches 0.99 only below the plateau of 5, but every evaluation
        # below the floor fails and F is 0.914 there: the growth probes halve
        # back onto the floor until no step is left, and raise the failure
        floor = plateau(bin20.family, 5)[0] - 0.5
        with pytest.raises(UnboundedEnumeration, match="below the floor"):
            upper_bound(floored(bin20.family, floor, fail=True), 5, 0.99)

    def test_growth_without_a_bracket_raises(self, bin20):
        # below the floor the distribution stops changing, so F(5) stays at
        # 0.914 < 0.99 however far the bracket grows
        floor = plateau(bin20.family, 5)[0] - 0.5
        with pytest.raises(DivergentSearch, match="no bracket"):
            upper_bound(floored(bin20.family, floor, fail=False), 5, 0.99)

    def test_failed_plateau_evaluation_raises(self):
        # the plateau of x = 3e6 of the harmonic family lies where the window
        # from 0 holds more points than the window cap
        with pytest.raises(UnboundedEnumeration, match="too large"):
            upper_bound(harmonic_family(), 3_000_000, 0.05)

    def test_negative_binomial_crossing_past_the_window_cap(self, negbin):
        # at alpha = 1e-15 the upper end lies where every window passes the
        # cap, so the search returns a failed probe and raises its error
        with pytest.raises(UnboundedEnumeration):
            upper_bound(negbin, 5, 1e-15)


SOLVER_FAMILIES = {
    "binomial": lambda draw: (make_binomial(draw(st.integers(1, 10**4))).family, None),
    "poisson": lambda draw: (make_poisson().family, 10**5),
    "oddsratio": lambda draw: (make_odds_ratio(49, 317, 245).family, None),
    "harmonic": lambda draw: (harmonic_family(), 200),
    "negbin": lambda draw: (negative_binomial(3.0), 200),
}


class TestNewtonSolver:
    """The safeguarded Newton solver returns certified, conservative ends."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_root_ends_are_certified(self, data):
        kind = data.draw(st.sampled_from(sorted(SOLVER_FAMILIES)))
        fam, top = SOLVER_FAMILIES[kind](data.draw)
        lo = int(fam.support.lo)
        hi = int(fam.support.hi) if fam.support.bounded_above else top
        x = data.draw(st.integers(lo, hi))
        alpha = 10.0 ** data.draw(st.floats(-15.0, math.log10(0.5)))
        upper = data.draw(st.booleans())
        tail = pvalue_left if upper else pvalue_right
        try:
            b = upper_bound(fam, x, alpha) if upper else lower_bound(fam, x, alpha)
        except UnboundedEnumeration:
            # the two custom families may need a window past the cap at small alpha
            assert kind in ("harmonic", "negbin")
            return
        except NotLogConcave:
            # a known defect: the check on the first window of these families
            # fails by rounding once that window is long (x >= 152 at alpha = 0.1)
            assert kind in ("harmonic", "negbin")
            return
        if math.isinf(b):
            assert x == (fam.support.hi if upper else fam.support.lo)
            return
        # f(b) <= alpha, and f exceeds alpha within one THETA_TOL or float spacing inside
        step = max(THETA_TOL, math.ulp(b))
        assert tail(fam, x, b) <= alpha
        assert tail(fam, x, b - step if upper else b + step) > alpha

    @pytest.mark.parametrize("n, x, alpha", [
        (20, 5, 0.025), (20, 5, 1e-15), (1000, 300, 0.025), (200, 3, 1e-6),
        (1000, 999, 0.005), (50, 0, 0.025), (10**5, 3 * 10**4, 0.025),
    ])
    def test_binomial_ends_against_beta_quantiles(self, n, x, alpha):
        fam = make_binomial(n)
        q = beta.isf(alpha, x + 1, n - x)
        b = upper_bound(fam, x, alpha)
        assert 0.0 <= b - (math.log(q) - math.log1p(-q)) <= 1e-10
        if x > 0:
            q = beta.ppf(alpha, x, n - x + 1)
            a = lower_bound(fam, x, alpha)
            assert 0.0 <= (math.log(q) - math.log1p(-q)) - a <= 1e-10

    @pytest.mark.parametrize("x, alpha", [(0, 0.025), (3, 0.025), (3, 1e-12), (5000, 0.025)])
    def test_poisson_ends_against_gamma_quantiles(self, pois, x, alpha):
        b = upper_bound(pois, x, alpha)
        assert 0.0 <= b - math.log(gamma.isf(alpha, x + 1)) <= 1e-10
        if x > 0:
            a = lower_bound(pois, x, alpha)
            assert 0.0 <= math.log(gamma.ppf(alpha, x)) - a <= 1e-10

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_log_cdf_is_concave(self, data):
        # Var(X | X <= x) <= Var(X) makes log F concave in theta, which is
        # what lets the first Newton step from the plateau bracket the root
        kind = data.draw(st.sampled_from(sorted(SOLVER_FAMILIES)))
        fam, _ = SOLVER_FAMILIES[kind](data.draw)
        theta = data.draw(st.floats(-8.0, -0.05 if kind in ("harmonic", "negbin") else 8.0))
        d = fam.distribution(theta)
        x = data.draw(st.integers(int(d.xs[0]), int(d.xs[-1])))
        p, xs = d.pmf_values, d.xs.astype(float)
        below = xs <= x
        if p[below].sum() == 0.0:
            return
        cond = p[below] / p[below].sum()
        var_below = float(cond @ (xs[below] - cond @ xs[below]) ** 2)
        var_all = float(p @ (xs - p @ xs) ** 2)
        assert var_below <= var_all * (1.0 + 1e-9) + 1e-300

    def test_slopes_match_finite_differences(self, bin20, pois):
        for fam, x, theta in ((bin20.family, 5, -1.0), (pois.family, 30, math.log(25.0))):
            d = fam.distribution(theta)
            h = 1e-6
            up, down = fam.distribution(theta + h), fam.distribution(theta - h)
            assert d.cdf_slope(x) == pytest.approx((up.cdf(x) - down.cdf(x)) / (2 * h), rel=1e-6)
            assert d.sf_slope(x) == pytest.approx((up.sf(x) - down.sf(x)) / (2 * h), rel=1e-6)
            assert d.cdf_slope(x) + d.sf_slope(x + 1) == pytest.approx(0.0, abs=1e-12)

    def test_evaluation_counts(self, monkeypatch):
        calls = count_evaluations(monkeypatch)
        model = make_binomial(1000)
        upper_bound(model, 300, 0.025)
        assert len(calls) <= 10
        calls.clear()
        clopper_pearson(model, 300, 0.05)
        assert len(calls) <= 24

    def test_pvalue_two_reads_one_evaluation(self, monkeypatch, bin20):
        want = [min(1.0, 2.0 * min(pvalue_left(bin20, 5, t), pvalue_right(bin20, 5, t)))
                for t in (-3.0, -1.0, 0.5)]
        calls = count_evaluations(monkeypatch)
        assert [pvalue_two(bin20, 5, t) for t in (-3.0, -1.0, 0.5)] == want
        assert len(calls) == 3


_POISSON = make_poisson()
_OR_BIG = make_odds_ratio(49, 317, 245)


@st.composite
def outcomes(draw):
    """(model, x) on binomial n <= 1e4, Poisson x <= 1e4 or the 49/317 table."""
    kind = draw(st.sampled_from(["binomial", "poisson", "oddsratio"]))
    if kind == "binomial":
        n = draw(st.integers(1, 10_000))
        return make_binomial(n), draw(st.integers(0, n))
    if kind == "poisson":
        return _POISSON, draw(st.integers(0, 10_000))
    return _OR_BIG, draw(st.integers(0, 49))


class TestCertifiedEndpointPvalues:
    """Each finite end reports the tail its solve certified, with no evaluation
    of the end after the solve; an open end reports 1.0 on a bounded side and
    None on an unbounded one."""

    @given(case=outcomes(), alpha=st.floats(math.log(1e-15), math.log(0.999)).map(math.exp))
    @settings(max_examples=60, deadline=None)
    def test_reported_tails_match_an_evaluation_at_the_end(self, case, alpha):
        model, x = case
        ci = clopper_pearson(model, x, alpha)
        assert ci.pvalue_hi == pvalue_two(model, x, ci.theta_hi)
        assert ci.pvalue_lo == pytest.approx(pvalue_two(model, x, ci.theta_lo), rel=1e-14)
        lower = one_sided_interval(model, x, alpha, "lower")
        upper = one_sided_interval(model, x, alpha, "upper")
        assert upper.pvalue_hi == pvalue_left(model, x, upper.theta_hi)
        assert lower.pvalue_lo == pytest.approx(pvalue_right(model, x, lower.theta_lo), rel=1e-14)
        for p, theta in ((ci.pvalue_lo, ci.theta_lo), (ci.pvalue_hi, ci.theta_hi),
                         (lower.pvalue_lo, lower.theta_lo), (upper.pvalue_hi, upper.theta_hi)):
            assert p <= alpha if math.isfinite(theta) else p == 1.0
        support = model.family.support
        assert lower.pvalue_hi == (pvalue_right(model, x, math.inf)
                                   if support.bounded_above else None)
        assert upper.pvalue_lo == (pvalue_left(model, x, -math.inf)
                                   if support.bounded_below else None)

    @pytest.mark.parametrize("make, x", [
        (lambda: make_binomial(20), 0), (lambda: make_binomial(20), 5),
        (lambda: make_binomial(1000), 300), (make_poisson, 0), (make_poisson, 96000),
        (lambda: make_odds_ratio(49, 317, 245), 42),
    ])
    def test_intervals_take_only_their_solves(self, monkeypatch, make, x):
        model = make()
        calls = count_evaluations(monkeypatch)
        solves = []
        for alpha in (0.025, 0.05):
            for bound in (lower_bound, upper_bound):
                calls.clear()
                bound(model, x, alpha)
                solves.append(len(calls))
        lo_half, hi_half, lo, hi = solves
        calls.clear()
        clopper_pearson(model, x, 0.05)
        assert len(calls) == lo_half + hi_half
        for side, want in (("lower", lo), ("upper", hi)):
            calls.clear()
            one_sided_interval(model, x, 0.05, side)
            assert len(calls) == want
