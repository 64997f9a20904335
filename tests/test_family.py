import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactci import (
    DivergentSearch,
    EmptySupport,
    InadmissibleInfiniteTheta,
    KEqualsX,
    LatticeFamily,
    LatticeSupport,
    NotLogConcave,
    OutOfSupport,
    UnboundedEnumeration,
    make_binomial,
    make_odds_ratio,
    make_poisson,
    pvalue_left,
    pvalue_right,
    pvalue_two,
    special_param,
    sterne_pvalue,
    validate,
)
from exactci.coverage import exact_coverage
from exactci.family import TAIL_DROP, plateau, reflect
from oracles import ladder, truncated_geometric_variance
from test_output_digest import digest
from test_sterne import harmonic_family, negative_binomial


def table_family(weights, lo=0):
    w = np.asarray(weights, dtype=float)

    def logw(x):
        with np.errstate(divide="ignore"):
            return np.log(w[np.asarray(x, dtype=int) - lo])

    return LatticeFamily(support=LatticeSupport(lo, lo + len(w) - 1), log_weight=logw)


class TestLatticeSupport:
    def test_membership_is_integer_only(self):
        s = LatticeSupport(0, 10)
        assert 3 in s
        assert np.int64(3) in s
        assert 3.0 not in s  # non-integers are never members
        assert True not in s
        assert 11 not in s
        assert -1 not in s

    def test_unbounded_membership(self):
        s = LatticeSupport(0, math.inf)
        assert 10**12 in s
        assert -1 not in s
        with pytest.raises(UnboundedEnumeration):
            s.points()

    def test_points(self):
        assert LatticeSupport(2, 5).points().tolist() == [2, 3, 4, 5]

    def test_empty(self):
        with pytest.raises(EmptySupport):
            LatticeSupport(3, 2)

    def test_non_integer_endpoint_rejected(self):
        with pytest.raises(ValueError, match="lo must be"):
            LatticeSupport(0.5, 2)
        with pytest.raises(ValueError, match="hi must be"):
            LatticeSupport(0, 1.5)


class TestValidate:
    def test_binomial_two_weights(self, bin2):
        validate(bin2.family)  # weights (1, 2, 1)

    def test_flat_weights_rejected(self):
        with pytest.raises(NotLogConcave) as info:
            validate(table_family([1.0, 1.0, 1.0]))
        assert info.value.x == 1

    def test_poisson_weights(self, pois):
        validate(pois.family)

    def test_two_point_support_vacuous(self):
        validate(table_family([1.0, 1.0]))  # no interior ratio pair

    def test_zero_weight_rejected(self):
        with pytest.raises(NotLogConcave):
            validate(table_family([1.0, 2.0, 0.0, 1.0]))

    def test_first_evaluation_validates(self):
        # log-convex weights are refused on first use, without a validate call
        fam = LatticeFamily(LatticeSupport(0, 30), lambda xs: 0.05 * xs * xs)
        with pytest.raises(NotLogConcave) as info:
            fam.distribution(0.0)
        assert info.value.x == 1

    def test_first_evaluation_checks_the_weights_it_reads(self, monkeypatch):
        # the check reads the evaluation's own window: it names the point
        # validate names, and the evaluation runs one window search
        wavy = lambda: LatticeFamily(LatticeSupport(0, math.inf), lambda xs: -xs + 0.5 * np.sin(xs))
        with pytest.raises(NotLogConcave) as checked:
            validate(wavy(), 0.5)
        fam = wavy()
        for _ in range(2):  # a refused first window is not kept
            with pytest.raises(NotLogConcave) as evaluated:
                fam.distribution(0.5)
            assert evaluated.value.x == checked.value.x
        searches, window = [], LatticeFamily._window
        monkeypatch.setattr(LatticeFamily, "_window",
                            lambda self, theta: searches.append(theta) or window(self, theta))
        make_poisson().family.distribution(0.5)
        assert searches == [0.5]

    @pytest.mark.parametrize("family,theta", [
        (lambda: LatticeFamily(LatticeSupport(0, 30), lambda xs: 0.05 * xs * xs), 0.0),
        (lambda: LatticeFamily(LatticeSupport(0, math.inf), lambda xs: -xs + 0.5 * np.sin(xs)), -0.5),
    ])
    def test_a_reflection_is_checked_as_its_source(self, family, theta):
        # it names the outcome its own first evaluation names, the source's at -theta
        with pytest.raises(NotLogConcave) as evaluated:
            reflect(family()).distribution(theta)
        for checked in (lambda: validate(reflect(family()), theta),
                        lambda: validate(family(), -theta)):
            with pytest.raises(NotLogConcave) as info:
                checked()
            assert info.value.x == evaluated.value.x

    @pytest.mark.parametrize("theta", [math.nan, "a"])
    def test_theta_is_refused_as_the_evaluator_refuses_it(self, monkeypatch, theta):
        searches, window = [], LatticeFamily._window
        monkeypatch.setattr(LatticeFamily, "_window",
                            lambda self, t: searches.append(t) or window(self, t))
        with pytest.raises(ValueError, match="theta must be a float"):
            validate(make_poisson().family, theta)
        assert searches == []

    def test_bounded_table_read_checks(self):
        # the check runs where the weights enter the store: a bounded family's
        # first weight read, here a special parameter, before any evaluation
        fam = LatticeFamily(LatticeSupport(0, 30), lambda xs: 0.05 * xs * xs)
        for _ in range(2):  # a refused table is not kept
            with pytest.raises(NotLogConcave) as info:
                special_param(fam, 3, 5)
            assert info.value.x == 1

    def test_reflection_reports_the_user_outcome(self):
        fam = LatticeFamily(LatticeSupport(0, 30), lambda xs: 0.05 * xs * xs)
        with pytest.raises(NotLogConcave) as info:
            reflect(fam).distribution(0.0)
        assert info.value.x == 1  # not -29, its mirror image

    def test_single_point_rejected_at_construction(self):
        with pytest.raises(EmptySupport):
            table_family([1.0])


class TestLogPmf:
    def test_fair_coin(self, bin2):
        assert bin2.family.distribution(0.0).logpmf(1) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_point_mass_at_top(self, bin20):
        assert bin20.family.distribution(math.inf).logpmf(20) == 0.0
        assert bin20.family.distribution(math.inf).logpmf(5) == -math.inf

    def test_point_mass_at_bottom(self, pois):
        assert pois.family.distribution(-math.inf).logpmf(0) == 0.0
        assert pois.family.distribution(-math.inf).logpmf(2) == -math.inf

    def test_poisson_closed_form(self, pois):
        want = -4.0 + 3.0 * math.log(4.0) - math.log(6.0)
        assert pois.family.distribution(math.log(4.0)).logpmf(3) == pytest.approx(want, abs=1e-12)

    def test_out_of_support(self, bin20):
        with pytest.raises(OutOfSupport):
            bin20.family.distribution(0.0).logpmf(21)
        with pytest.raises(OutOfSupport):  # the reflection's support is -20..0
            reflect(bin20.family).distribution(0.0).logpmf(1)

    @pytest.mark.parametrize("theta", [3, np.int64(3)])
    def test_an_integer_theta_is_its_float(self, bin20, theta):
        d, want = bin20.family.distribution(theta), bin20.family.distribution(3.0)
        assert type(d.theta) is float and d.theta == 3.0
        assert d.e.tobytes() == want.e.tobytes() and (d.s, d.log_norm) == (want.s, want.log_norm)

    def test_infinite_theta_needs_finite_endpoint(self, pois):
        with pytest.raises(InadmissibleInfiniteTheta):
            pois.family.distribution(math.inf).logpmf(3)

    def test_point_off_the_window(self):
        # x = 0 lies deep in the truncated tail, so the value comes from the
        # family's log weight rather than the window's summands: f(0) = 2^-2000,
        # and the reflection reads the same weight through its source
        fam = make_binomial(2000).family
        d = fam.distribution(0.0)
        assert (int(d.xs[0]), int(d.xs[-1])) == (195, 1805)
        assert d.logpmf(0) == pytest.approx(-2000 * math.log(2.0), rel=1e-12)
        r = reflect(fam).distribution(-0.0)
        assert (int(r.xs[0]), int(r.xs[-1])) == (-1805, -195)
        assert r.logpmf(0) == d.logpmf(0) and r.logpmf(-2000) == d.logpmf(2000)


class TestOneCopyOfTheWeights:
    """A distribution keeps its window's points and shifted exponentials, and
    reads its log weights from the family's store."""

    def test_an_evaluation_keeps_two_window_arrays(self):
        fam, theta = make_binomial(10**6).family, math.log(0.3 / 0.7)
        fam.distribution(theta)  # reads the table and leaves the warm start
        tracemalloc.start()
        try:
            d = fam.distribution(theta)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window = 8 * len(d.xs)
        assert len(d.xs) > 30000
        assert kept <= 2.1 * window and peak <= 2.5 * window

    def test_a_reflected_evaluation_keeps_no_copy(self):
        # a view of its source's distribution: the same peak as the family's own
        ref, theta = reflect(make_binomial(10**6).family), -math.log(0.3 / 0.7)
        ref.distribution(theta)
        tracemalloc.start()
        try:
            d = ref.distribution(theta)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window = 8 * len(d.e)
        assert len(d.e) > 30000
        assert kept <= 2.1 * window and peak <= 2.5 * window

    @pytest.mark.parametrize("reflected", [False, True])
    def test_log_pmfs_read_the_store(self, reflected):
        fam = make_binomial(1000).family
        walk = reflect(fam) if reflected else fam
        d = walk.distribution(-0.4 if reflected else 0.4)
        assert "g" not in {f.name for f in dataclasses.fields(d)}
        assert np.shares_memory(d.logw, fam._span[1])
        assert d.logpmf_values.tolist() == [d.logpmf(int(x)) for x in d.xs]


def quadratic_family():
    return LatticeFamily(LatticeSupport(5, 30), lambda xs: -0.05 * xs * xs)


class TestOverflowAtTheMode:
    """A theta whose summand overflows at the mode, theta x beyond the largest
    double, leaves every other outcome more than 1e306 nats lower: the point
    mass that theta = +-inf gives at that support end."""

    def test_distribution_is_the_point_mass(self):
        d = make_binomial(20).family.distribution(1e308)
        assert d.theta == 1e308 and d.xs.tolist() == [20] and d.logpmf_values.tolist() == [0.0]
        assert (d.logpmf(20), d.logpmf(5), d.cdf(19), d.sf(20), d.mean) == (0.0, -math.inf, 0.0, 1.0, 20.0)
        r = reflect(make_binomial(20).family).distribution(-1e308)
        assert r.theta == -1e308 and r.xs.tolist() == [-20] and r.logpmf_values.tolist() == [0.0]
        d = quadratic_family().distribution(-1e308)
        assert d.xs.tolist() == [5] and (d.logpmf(5), d.logpmf(6)) == (0.0, -math.inf)

    def test_pvalues(self):
        assert pvalue_two(make_binomial(20), 5, 1e308) == 0.0
        assert pvalue_left(make_binomial(20), 5, 1e308) == 0.0
        assert pvalue_right(make_odds_ratio(49, 317, 245), 49, 1e307) == 1.0
        assert pvalue_left(quadratic_family(), 5, -1e308) == 1.0
        assert sterne_pvalue(make_binomial(20), 5, 1e308).value == 0.0

    def test_audit_row_is_the_point_mass_row(self):
        # the Sterne interval of x = 20 is unbounded above, so it covers every theta
        at_inf = exact_coverage(make_binomial(20), "sterne", 0.05, [math.inf])
        for grid in ([0.0, 1e308], [0.0, 1e308, math.inf]):
            r = exact_coverage(make_binomial(20), "sterne", 0.05, grid)
            i = r.grid.tolist().index(1e308)
            assert (r.coverage[i], r.expected_length[i]) == (1.0, at_inf.expected_length[0])
            assert not np.isnan(r.expected_length).any() and r.min_coverage == r.coverage.min() < 1.0

    def test_infinite_weight_at_the_mode_is_refused(self):
        # a +inf log weight makes the mode's summand infinite without any overflow
        fam = LatticeFamily(LatticeSupport(0, math.inf), lambda xs: np.where(xs == 0, np.inf, -xs * xs))
        for theta in (0.0, 1.0):
            with pytest.raises(NotLogConcave) as info:
                fam.distribution(theta)
            assert info.value.x == 0

    def test_unbounded_side_still_diverges(self):
        with pytest.raises(DivergentSearch):
            make_poisson().family.distribution(1e308)


class TestCdf:
    def test_fair_coin(self, bin2):
        assert bin2.family.distribution(0.0).cdf(1) == pytest.approx(0.75, abs=1e-14)

    def test_poisson_left_tail(self, pois):
        # F_lambda(0) = exp(-lambda) = 0.025 at lambda = -ln(0.025)
        theta = math.log(-math.log(0.025))
        assert pois.family.distribution(theta).cdf(0) == pytest.approx(0.025, abs=1e-12)

    def test_exact_edges(self, bin20):
        fam = bin20.family
        assert fam.distribution(1.3).cdf(20) == 1.0
        assert fam.distribution(1.3).cdf(25) == 1.0
        assert fam.distribution(1.3).cdf(-1) == 0.0

    def test_truncated_window_edges(self, pois):
        d = pois.family.distribution(math.log(4.0))
        assert d.cdf(10**9) == 1.0  # far beyond any window
        assert d.sf(10**9) == 0.0
        assert d.sf(0) == 1.0

    def test_continuity_in_theta(self, bin20, pois, or_big):
        h = 1e-6
        for model, theta, x in [
            (bin20, -0.4, 7),
            (pois, math.log(4.0), 3),
            (or_big, 1.0, 42),
        ]:
            fam = model.family
            assert abs(fam.distribution(theta + h).cdf(x) - fam.distribution(theta).cdf(x)) < 1e-4


class TestSpecialParam:
    def test_binomial_value(self, bin20):
        # w_5 / w_6 = 15504 / 38760 = 6 / 15
        assert special_param(bin20.family, 5, 6) == pytest.approx(math.log(6 / 15), abs=1e-12)

    def test_poisson_value(self, pois):
        assert special_param(pois.family, 3, 4) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_sentinels(self, bin20):
        assert special_param(bin20.family, 5, -1) == -math.inf
        assert special_param(bin20.family, 5, 21) == math.inf

    @pytest.mark.parametrize("k", [21.0, -1.0, 6.0, True, np.float64(21)])
    def test_non_integer_k_is_no_sentinel(self, bin20, k):
        with pytest.raises(OutOfSupport):
            special_param(bin20.family, 5, k)

    def test_k_equals_x(self, bin20):
        with pytest.raises(KEqualsX):
            special_param(bin20.family, 5, 5)

    @pytest.mark.parametrize("x", [21, -1, 5.0, True])
    def test_x_off_the_support(self, bin20, x):
        with pytest.raises(OutOfSupport, match="x = "):
            special_param(bin20.family, x, 6)

    def test_k_out_of_range(self, bin20):
        with pytest.raises(OutOfSupport):
            special_param(bin20.family, 5, 22)

    def test_below_lower_sentinel_rejected(self, pois):
        with pytest.raises(OutOfSupport):
            special_param(pois.family, 3, -2)


class TestLadder:
    def test_strictly_increasing_binomial(self, bin20):
        for x in range(21):
            lad = ladder(bin20.family, x)
            vals = [lad.entries[k] for k in lad.ks()]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_strictly_increasing_poisson(self, pois):
        lad = ladder(pois.family, 5, k_max=200)
        vals = [lad.entries[k] for k in lad.ks()]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_strictly_increasing_odds_ratio(self, or_big):
        for x in range(50):
            lad = ladder(or_big.family, x)
            vals = [lad.entries[k] for k in lad.ks()]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_unbounded_side_needs_explicit_limit(self, pois):
        with pytest.raises(UnboundedEnumeration):
            ladder(pois.family, 5)


class TestPlateau:
    def test_binomial_interior(self, bin20):
        lo, hi = plateau(bin20.family, 5)
        assert lo == pytest.approx(math.log(5 / 16), abs=1e-12)  # logit(5/21)
        assert hi == pytest.approx(math.log(6 / 15), abs=1e-12)  # logit(6/21)

    def test_poisson(self, pois):
        lo, hi = plateau(pois.family, 3)
        assert lo == pytest.approx(math.log(3.0), abs=1e-12)
        assert hi == pytest.approx(math.log(4.0), abs=1e-12)

    def test_bottom_edge(self, bin20):
        lo, hi = plateau(bin20.family, 0)
        assert lo == -math.inf
        assert hi == pytest.approx(math.log(1 / 20), abs=1e-12)  # logit(1/21)


# name: (family, outcomes); evaluated at each outcome's mode tie and past it
REFLECTED = {
    "binomial 20": lambda: (make_binomial(20).family, (0, 1, 5, 12, 18)),
    "binomial 1000": lambda: (make_binomial(1000).family, (0, 3, 300, 500, 990)),
    "oddsratio 49/317/245": lambda: (make_odds_ratio(49, 317, 245).family, (0, 1, 20, 42)),
    "poisson": lambda: (make_poisson().family, (0, 3, 40, 5000)),
    "harmonic": lambda: (harmonic_family(), (0, 1, 3, 50)),
}


class TestReflect:
    def test_special_params_negate(self, bin20):
        fam = bin20.family
        ref = reflect(fam)
        assert ref.support.lo == -20 and ref.support.hi == 0
        for x, k in [(5, 9), (0, 1), (19, 20), (12, 3)]:
            assert special_param(ref, -x, -k) == -special_param(fam, x, k)

    def test_poisson_reflection_evaluates(self, pois):
        ref = reflect(pois.family)
        assert ref.support.bounded_above and not ref.support.bounded_below
        d = ref.distribution(-math.log(4.0))
        fwd = pois.family.distribution(math.log(4.0))
        assert d.cdf(-3) == pytest.approx(fwd.sf(3), abs=1e-12)

    def test_double_reflection_round_trips(self, bin20):
        back = reflect(reflect(bin20.family))
        xs = bin20.family.support.points().astype(float)
        np.testing.assert_allclose(back.log_weight(xs), bin20.family.log_weight(xs), atol=1e-12)

    def test_reflection_is_cached_and_reads_its_source_weights(self, bin20):
        fam = bin20.family
        ref = reflect(fam)
        assert reflect(fam) is ref
        assert reflect(ref) is fam
        # the reflection keeps no weights: each read goes to its source's table
        assert len(ref._span[1]) == 0
        assert [ref._logw(-x) for x in range(21)] == fam._span[1].tolist()

    @pytest.mark.parametrize("name", sorted(REFLECTED))
    def test_reflection_reads_the_family_backwards(self, name):
        # the same doubles, not merely close ones: each tail of the reflection
        # is the family's opposite tail, summed in the same order
        fam, xs = REFLECTED[name]()
        ref = reflect(fam)
        thetas = [special_param(fam, x, x + 1) for x in xs]  # mode ties
        thetas += [special_param(fam, x, x + 7) for x in xs if x + 7 in fam.support]
        thetas += [-math.inf, math.inf]
        for t in thetas:
            try:
                d = fam.distribution(t)
            except InadmissibleInfiniteTheta:
                with pytest.raises(InadmissibleInfiniteTheta):
                    ref.distribution(-t)
                continue
            r = ref.distribution(-t)
            assert (r.theta, r.s, r.log_norm) == (-t, d.s, d.log_norm)
            np.testing.assert_array_equal(r.xs, -d.xs[::-1])
            np.testing.assert_array_equal(r.pmf_values, d.pmf_values[::-1])
            for y in list(xs) + [int(d.xs[0]) - 1, int(d.xs[0]), int(d.xs[-1]), int(d.xs[-1]) + 1]:
                assert r.cdf(-y) == d.sf(y) and r.sf(-y) == d.cdf(y)
                if y in fam.support:
                    assert r.pmf(-y) == d.pmf(y)

    @pytest.mark.parametrize("name", sorted(REFLECTED))
    def test_reflected_value_arrays_are_the_family_reversed(self, name):
        # the base formulas on the reversed views: -theta times -x is theta x, bit for bit
        fam, xs = REFLECTED[name]()
        for t in [special_param(fam, x, x + 1) for x in xs] + [-math.inf]:
            d, r = fam.distribution(t), reflect(fam).distribution(-t)
            assert r.pmf_values.tobytes() == d.pmf_values[::-1].tobytes()
            assert r.logpmf_values.tobytes() == d.logpmf_values[::-1].tobytes()

    def test_reflected_evaluation_is_one_call_on_the_family(self, monkeypatch):
        # the reflection runs no window search of its own and calls the public
        # evaluator once, so evaluation counts do not double
        fam = make_poisson().family
        ref = reflect(fam)
        calls, depth, windows = [], [0], []
        evaluate, window = LatticeFamily.distribution, LatticeFamily._window

        def counted(self, theta):
            calls.append(self)
            depth[0] += 1
            assert depth[0] == 1
            try:
                return evaluate(self, theta)
            finally:
                depth[0] -= 1

        def searched(self, theta):
            windows.append(self)
            return window(self, theta)

        monkeypatch.setattr(LatticeFamily, "distribution", counted)
        monkeypatch.setattr(LatticeFamily, "_window", searched)
        ref.distribution(-math.log(40.0))
        assert calls == [ref] and windows and all(w is fam for w in windows)
        # the family and its reflection share one warm start
        assert "_hint" in fam.__dict__ and "_hint" not in ref.__dict__


def brute_variance(delta, m):
    x = np.arange(m + 1, dtype=float)
    w = np.exp(delta * (x - m / 2.0))  # centered to keep weights moderate
    w /= w.sum()
    mean = float(np.dot(w, x))
    return float(np.dot(w, (x - mean) ** 2))


def exact_variance(q: Fraction, m: int) -> Fraction:
    # variance of weights q^x on {0..m} in exact rational arithmetic
    weights = [q**x for x in range(m + 1)]
    total = sum(weights)
    mean = sum(x * w for x, w in enumerate(weights)) / total
    second = sum(x * x * w for x, w in enumerate(weights)) / total
    return second - mean * mean


class TestTruncatedGeometricVariance:
    def test_uniform_case(self):
        assert truncated_geometric_variance(0.0, 2) == pytest.approx(2 / 3, abs=1e-15)

    def test_two_point_case(self):
        assert truncated_geometric_variance(0.5, 1) == pytest.approx(
            brute_variance(0.5, 1), abs=1e-14
        )

    def test_point_mass(self):
        assert truncated_geometric_variance(-1.0, 0) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("delta", [-2.0, -0.5, 0.0, 0.5, 2.0])
    def test_matches_brute_force(self, delta):
        values = [truncated_geometric_variance(delta, m) for m in range(31)]
        for m, v in enumerate(values):
            assert v == pytest.approx(brute_variance(delta, m), abs=1e-12)
        # the float sequence saturates once the truncation correction drops
        # below one ulp of the limit (|delta| = 2, m around 22), so only the
        # non-strict direction is checkable here; strictness is exact below
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("delta", [-2.0, -0.5, 0.0, 0.5, 2.0])
    def test_strictly_increasing_in_m(self, delta):
        # rational arithmetic with base q = fl(e^delta) taken exactly, so the
        # ~1e-24 increments past float saturation still register
        q = Fraction(1) if delta == 0.0 else Fraction(math.exp(delta))
        values = [exact_variance(q, m) for m in range(31)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            truncated_geometric_variance(0.5, -1)


class TestNormalization:
    def test_fifty_random_thetas_per_model(self, bin20, pois, or_big, rng):
        for model, lo, hi in [(bin20, -8.0, 8.0), (pois, -6.0, 7.0), (or_big, -8.0, 8.0)]:
            for theta in rng.uniform(lo, hi, size=50):
                total = float(model.family.distribution(float(theta)).pmf_values.sum())
                assert abs(total - 1.0) < 1e-12

    @given(theta=st.floats(-30.0, 30.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_binomial_any_theta(self, theta):
        from exactci import make_binomial

        d = make_binomial(17).family.distribution(theta)
        assert abs(float(d.pmf_values.sum()) - 1.0) < 1e-12


class TestStochasticOrdering:
    @given(
        theta=st.floats(-3.0, 2.5, allow_nan=False),
        gap=st.floats(0.5, 3.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_binomial_cdf_decreases_in_theta(self, theta, gap):
        from exactci import make_binomial

        fam = make_binomial(20).family
        lo = fam.distribution(theta)
        hi = fam.distribution(theta + gap)
        for x in range(20):
            a, b = hi.cdf(x), lo.cdf(x)
            assert a <= b + 1e-13
            if 1e-10 < max(a, b) < 1.0 - 1e-10:
                assert a < b

    def test_poisson_cdf_decreases_in_theta(self, pois):
        fam = pois.family
        lo = fam.distribution(0.5)
        hi = fam.distribution(1.5)
        for x in range(40):
            a, b = hi.cdf(x), lo.cdf(x)
            assert a <= b + 1e-13
            if 1e-10 < max(a, b) < 1.0 - 1e-10:
                assert a < b


class TestTailSums:
    def test_sf_jump_equals_pmf_above_mode(self, or_big):
        # the upper tail must resolve single-outcome jumps even deep in the
        # tail, where 1 - cdf would quantize away; below the mode the jump is
        # a negligible slice of a tail near 1 and no summation order saves it
        d = or_big.family.distribution(special_param(or_big.family, 0, 49))
        mode = int(d.xs[np.argmax(d.pmf_values)])
        for k in range(mode, 50):
            drop = d.sf(k) - d.sf(k + 1)
            assert drop == pytest.approx(d.pmf(k), rel=1e-9)
            assert drop > 0.0

    def test_window_cap_fails_loudly(self, pois):
        with pytest.raises(UnboundedEnumeration):
            pois.family.distribution(16.0)


def unwindowed(family, theta, top):
    """(xs, e) on support.lo..top: the same max-shifted terms with no window."""
    xs = np.arange(int(family.support.lo), top + 1)
    g = family.log_weight(xs.astype(float)) + theta * xs
    return xs, np.exp(g - g.max())


def fsum_tails(e):
    """(cdf, sf) of the terms e at an index: each tail's sum over the total, all
    from ``math.fsum``, so within 1.5 ulp of the exact ratio. The running sums
    are carried as a correctly rounded head and the rounded remainder, which
    keeps about 106 bits, and zero terms, which add nothing, are skipped."""
    nz = np.flatnonzero(e)
    a, terms = int(nz[0]), e[nz[0] : nz[-1] + 1].tolist()

    def running(values):
        out, head, rest = [0.0], 0.0, 0.0
        for v in values:
            new = math.fsum((head, rest, v))
            head, rest = new, math.fsum((head, rest, v, -new))
            out.append(head)
        return out

    up, down, total = running(terms), running(reversed(terms))[::-1], math.fsum(terms)
    clip = lambda i: min(max(i - a, 0), len(terms))
    return lambda i: up[clip(i + 1)] / total, lambda i: down[clip(i)] / total


def assert_tail(got: float, want: float):
    # a pairwise sum's rounding grows as log n; below 1e-290 the terms themselves
    # lose digits to underflow, so the bound there is absolute
    assert abs(got - want) <= 2e-15 * max(want, 1e-290), (got, want)


WINDOW_CASES = [
    *[(make_binomial(n), theta) for n in (20, 1000, 10**5)
      for theta in (-40.0, -12.0, -1.5, 0.0, 1.5, 12.0, 40.0)],
    *[(make_odds_ratio(49, 317, 245), theta) for theta in (-40.0, -8.0, 0.0, 3.0, 40.0)],
    *[(make_poisson(), math.log(lam)) for lam in (1e-2, 4.0, 1e6)],
]


class TestSummationWindow:
    """Every term off the window is exactly 0.0, so cutting it changes nothing."""

    @pytest.mark.parametrize("model,theta", WINDOW_CASES)
    def test_windowed_tails_equal_full_sums(self, model, theta):
        fam = model.family
        d = fam.distribution(theta)
        if fam.support.bounded:
            top = int(fam.support.hi)
        else:
            lam = math.exp(theta)
            top = int(lam + 60.0 * math.sqrt(lam) + 2000)
        xs, e = unwindowed(fam, theta, top)
        cdf, sf = fsum_tails(e)
        a, b = int(d.xs[0]), int(d.xs[-1])
        picks = np.unique(np.concatenate([
            np.linspace(xs[0], xs[-1], 2001).astype(int),
            np.clip([a - 2, a - 1, a, a + 1, b - 1, b, b + 1, b + 2], xs[0], xs[-1]),
        ]))
        for x in picks:
            i = int(x - xs[0])
            assert_tail(d.cdf(int(x)), cdf(i))
            assert_tail(d.sf(int(x)), sf(i))
        # below and above the window the full sums add exact zeros
        assert not e[: a - xs[0]].any() and not e[b + 1 - xs[0] :].any()

    def test_large_supports_are_cut(self):
        d = make_binomial(10**5).family.distribution(0.0)
        assert len(d.xs) < 2 * 10**4  # about 39 sd either side of the mode
        d = make_poisson().family.distribution(math.log(1e6))
        assert d.xs[0] > 9 * 10**5


class TestTailsOnDemand:
    """cdf and sf sum only the part of the window they need, each one pairwise
    sum, so they keep the correctly rounded cumulative sums' digits to a few
    ulps."""

    @pytest.mark.parametrize("model, thetas", [
        (make_binomial(1000), [-6.0, -1.5, 0.0, 0.7, 5.0]),
        (make_poisson(), [math.log(v) for v in (0.01, 0.7, 12.0, 400.0, 1e4)]),
        (make_odds_ratio(49, 317, 245), [-4.0, -0.5, 0.0, 1.0, 4.0]),
    ])
    def test_tails_equal_full_cumulative_sums(self, model, thetas):
        for theta in thetas:
            d = model.family.distribution(theta)
            cdf, sf = fsum_tails(d.e)
            xs = [int(x) for x in d.xs]
            for i, x in enumerate(xs[:-1]):
                assert_tail(d.cdf(x), cdf(i))
                assert_tail(d.sf(x + 1), sf(i + 1))
            # the window ends keep their exact values
            assert d.cdf(xs[-1]) == 1.0 and d.sf(xs[0]) == 1.0


def score_window(family, theta):
    """(a, b, g_mode) of a bounded family by linear scans through ``_score``:
    the mode is the first x where log w_{x+1} - log w_x + theta > 0 fails, and
    each cut the first point past it whose summand sits TAIL_DROP below."""
    lo, hi = int(family.support.lo), int(family.support.hi)
    m = next(x for x in range(lo, hi + 1)
             if x == hi or not family._logw(x + 1) - family._logw(x) + theta > 0.0)
    gm = family._score(m, theta)
    dropped = lambda x: gm - family._score(x, theta) > TAIL_DROP
    a = next((x for x in range(m, lo - 1, -1) if dropped(x)), lo)
    b = next((x for x in range(m, hi + 1) if dropped(x)), hi)
    return a, b, gm


MODE_FAMILIES = [m.family for m in (make_binomial(20), make_binomial(200), make_binomial(1000),
                                    make_odds_ratio(49, 317, 245))]
MODE_FAMILIES += [reflect(f) for f in MODE_FAMILIES]


class TestBoundedMode:
    """A bounded family's warm mode search finds the first argmax of its summands."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mode_and_window_match_the_score_rule(self, data):
        fam = data.draw(st.sampled_from(MODE_FAMILIES))
        lo, hi = int(fam.support.lo), int(fam.support.hi)
        t = fam._log_weights(lo, hi)
        i = data.draw(st.integers(0, len(t) - 2))
        # the exact tie of outcomes i and i + 1, any theta, and the extremes
        theta = data.draw(st.one_of(
            st.just(-(t.item(i + 1) - t.item(i))),
            st.floats(-1e3, 1e3),
            st.sampled_from([-1e3, 1e3]),
        ))
        xs = np.arange(lo, hi + 1)
        g = t + theta * xs
        first = lo + int(np.argmax(g))
        m = fam._mode(theta)
        # a tie rounds either way in t + theta * xs, so there the first argmax
        # may be either neighbour
        tie = 4.0 * np.spacing(np.abs(t).max() + abs(theta) * np.abs(xs).max())
        assert m == first or (abs(m - first) == 1 and g[first - lo] - g[m - lo] <= tie)
        assert fam._window(theta) == score_window(fam, theta)


POISSON = make_poisson().family


class TestPoissonWindow:
    """The TAIL_DROP cut alone ends a Poisson window, at tiny and at large lambda."""

    @given(log_lam=st.floats(math.log(1e-20), math.log(2e5)))
    @settings(max_examples=150, deadline=None)
    def test_window_ends_match_a_linear_scan(self, log_lam):
        # one shared family, so each window search starts where the last ended
        theta = log_lam
        lam = math.exp(theta)
        xs = np.arange(0, int(lam + 60.0 * math.sqrt(lam) + 2000))
        logw = POISSON.log_weight(xs.astype(float))
        m = next(x for x in xs[:-1] if not logw[x + 1] - logw[x] + theta > 0.0)
        g = logw + theta * xs
        dropped = g[m] - g > TAIL_DROP
        a = next((x for x in range(m, -1, -1) if dropped[x]), 0)
        b = next(x for x in range(m, len(xs)) if dropped[x])
        assert POISSON._window(theta) == (a, b, g[m])
        d = POISSON.distribution(theta)
        assert (int(d.xs[0]), int(d.xs[-1])) == (a, b)
        assert d.pmf_values[-1] == 0.0


class TestPoissonWeightReads:
    """An unbounded family reads its weights from the span around its last window."""

    def test_warm_evaluation_reads(self):
        source = make_poisson().family
        calls = []

        def logw(xs):
            calls.append(len(xs))
            return source.log_weight(xs)

        fam = dataclasses.replace(source, log_weight=logw)
        fam.distribution(math.log(30.0))
        calls.clear()
        d = fam.distribution(math.log(33.0))
        # the window lies inside the span the last evaluation kept
        assert calls == []
        cold = make_poisson().family.distribution(math.log(33.0))
        assert d.xs.tolist() == cold.xs.tolist()
        assert d.logpmf_values.tolist() == cold.logpmf_values.tolist() and d.log_norm == cold.log_norm
        # a window off the span: the searches read single weights and probe
        # pairs, and one last call reads the new span
        far = fam.distribution(math.log(3000.0))
        first, span = fam.__dict__["_span"]
        assert [n for n in calls if n > 2] == [len(span)] == calls[-1:]
        a, b = int(far.xs[0]), int(far.xs[-1])
        reach = (b - a + 1) // 2
        assert (first, first + len(span) - 1) == (max(a - reach, 0), b + reach)


SPAN_FAMILIES = {
    # maker, admissible theta range of the walk
    "poisson": (lambda: make_poisson().family, (-5.0, math.log(1e6))),
    "negative binomial r=3": (negative_binomial, (-5.0, -0.01)),
    "harmonic": (harmonic_family, (-5.0, 0.99)),
    "two-sided": (digest._two_sided, (-60.0, 60.0)),
}


BOUNDED_FAMILIES = {
    "binomial 20": lambda: make_binomial(20).family,
    "binomial 1000": lambda: make_binomial(1000).family,
    "binomial 1e5": lambda: make_binomial(10**5).family,
    "odds ratio 49/317/245": lambda: make_odds_ratio(49, 317, 245).family,
}


def table_window(family, theta):
    """(mode, (a, b, g_mode)) of a bounded family from its whole table: the
    predicates of the window searches, with the same float operations, over
    every point."""
    lo, hi = int(family.support.lo), int(family.support.hi)
    w, xs = family._log_weights(lo, hi), np.arange(lo, hi + 1)
    m = lo + int(np.argmin(np.append(np.diff(w) + theta > 0.0, False)))
    g = w + theta * xs
    dropped = g[m - lo] - g > TAIL_DROP
    below, above = np.nonzero(dropped[: m - lo])[0], np.nonzero(dropped[m - lo :])[0]
    a = lo + int(below[-1]) if below.size else lo
    b = m + int(above[0]) if above.size else hi
    return m, (a, b, g.item(m - lo))


def assert_walk_reads_the_fresh_family(family, walk, source, fresh, theta, sign):
    """Evaluate ``walk`` (``family`` or its reflection) at sign * theta, warm from
    its last window, and check it against ``fresh`` over a cold ``source``."""
    d = walk.distribution(sign * theta)
    xs = d.xs.tolist()
    x = xs[len(xs) // 2]
    ks = [k for k in (xs[0], xs[-1], x + 1, x - 3 * len(xs), x + 3 * len(xs))
          if k != x and k in walk.support]
    # the fresh family answers these before any window search of its own
    assert [special_param(walk, x, k) for k in ks] == [special_param(fresh, x, k) for k in ks]
    window = source._window(theta)  # searched from the support point nearest 0
    cold = fresh.distribution(sign * theta)
    assert family._window(theta) == window
    assert xs == cold.xs.tolist() and d.logpmf_values.tolist() == cold.logpmf_values.tolist()
    assert d.e.tolist() == cold.e.tolist() and (d.s, d.log_norm) == (cold.s, cold.log_norm)
    return d


class TestLogWeightSpan:
    """Walking theta over a family, and over its reflection, reads the same
    doubles as a fresh family. An unbounded family reads them from a span at
    most twice the window that placed it, a bounded one from its whole table."""

    @given(name=st.sampled_from(sorted(SPAN_FAMILIES)), reflected=st.booleans(),
           steps=st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0)), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_theta_walk_reads_the_fresh_family(self, name, reflected, steps):
        maker, (lo, hi) = SPAN_FAMILIES[name]

        def checked():
            # the log-concavity check runs on the first span a family places (on
            # long windows rounding can fail it): place it at the short window of
            # theta = lo, then forget the warm start
            family = maker()
            placed = len(family.distribution(lo).xs)
            del family.__dict__["_hint"]
            return family, placed

        family, placed = checked()
        walk = reflect(family) if reflected else family
        sign = -1.0 if reflected else 1.0
        theta, span = lo + 0.5 * (hi - lo), family.__dict__["_span"][1]
        for far, u in steps:
            # a far jump lands anywhere in the range, a near step moves 1 % of it
            theta = lo + u * (hi - lo) if far else min(max(theta + (u - 0.5) * 0.02 * (hi - lo), lo), hi)
            source = checked()[0]
            fresh = reflect(source) if reflected else source
            xs = assert_walk_reads_the_fresh_family(family, walk, source, fresh, theta, sign).xs.tolist()
            first, logw = family.__dict__["_span"]
            a, b = (-xs[-1], -xs[0]) if reflected else (xs[0], xs[-1])
            if logw is not span:  # placed by this window
                span, placed = logw, b - a + 1
            assert first <= a and b < first + len(span) and len(span) <= 2 * placed
            assert first in family.support and first + len(span) - 1 in family.support

    @given(name=st.sampled_from(sorted(BOUNDED_FAMILIES)), reflected=st.booleans(),
           steps=st.lists(st.tuples(st.sampled_from(["tie", "any", "extreme"]), st.floats(0.0, 1.0)),
                          min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_bounded_theta_walk_reads_the_fresh_family(self, name, reflected, steps):
        family = BOUNDED_FAMILIES[name]()
        walk = reflect(family) if reflected else family
        sign = -1.0 if reflected else 1.0
        lo, hi = int(family.support.lo), int(family.support.hi)
        first, w = family._span  # the whole table, never replaced
        assert (first, len(w)) == (lo, hi - lo + 1)
        for kind, u in steps:
            # the exact tie of outcomes i and i + 1, any theta, and the extremes
            i = int(u * (hi - lo - 1))
            theta = {"tie": -(w.item(i + 1) - w.item(i)), "any": 40.0 * u - 20.0,
                     "extreme": math.copysign(1e3, u - 0.5)}[kind]
            source = BOUNDED_FAMILIES[name]()
            fresh = reflect(source) if reflected else source
            assert_walk_reads_the_fresh_family(family, walk, source, fresh, theta, sign)
            mode, window = table_window(family, theta)
            assert family._window(theta) == window and family._mode(theta) == mode
            assert family._span[1] is w
