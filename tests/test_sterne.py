import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln
from scipy.stats import binom

from exactci import (
    BadDelta,
    DivergentSearch,
    ExactCIError,
    InadmissibleInfiniteTheta,
    LatticeFamily,
    LatticeSupport,
    NotLogConcave,
    OutOfSupport,
    UnboundedEnumeration,
    exact_coverage,
    jump_limits,
    length_table,
    make_binomial,
    make_odds_ratio,
    make_poisson,
    pvalue_left,
    special_param,
    sterne_interval,
    sterne_lower,
    sterne_pvalue,
    sterne_upper,
    upper_bound,
)
import exactci.family
import exactci.sterne
from exactci.family import plateau, reflect
from exactci.sterne import DEFAULT_DELTA, stage_one, stage_two
from oracles import count_evaluations, k_star_reference, sterne_pvalue_oracle

ALPHA = 0.05


def jump_value(fam, x, k):
    """pi(x, .) evaluated exactly at theta_{k,x} through the piecewise form."""
    return sterne_pvalue(fam, x, special_param(fam, x, k)).value


def scan_last_jump_above(fam, x, alpha, k_hi):
    """Reference for stage_one: linear scan of the (decreasing) jump values."""
    best = x + 1
    for k in range(x + 1, k_hi + 1):
        if jump_value(fam, x, k) >= alpha:
            best = k
    return best


class TestPValuePieces:
    def test_plateau_is_exactly_one(self, bin20):
        lo, hi = plateau(bin20.family, 5)
        for eta, at in ((lo, True), (0.5 * (lo + hi), False), (hi, True)):
            ev = sterne_pvalue(bin20, 5, eta)
            assert ev.value == 1.0
            assert ev.segment == 5
            assert ev.at_jump is at

    def test_segment_and_jump_flag_right_of_plateau(self, bin20):
        t = special_param(bin20.family, 5, 9)
        ev = sterne_pvalue(bin20, 5, t)
        assert ev.segment == 9
        assert ev.at_jump
        ev = sterne_pvalue(bin20, 5, t - 1e-9)
        assert ev.segment == 9
        assert not ev.at_jump

    def test_beyond_last_jump_only_left_tail(self, bin20):
        eta = special_param(bin20.family, 5, 20) + 0.3
        ev = sterne_pvalue(bin20, 5, eta)
        assert ev.segment == 21
        assert ev.value == pvalue_left(bin20, 5, eta)

    def test_before_first_jump_only_right_tail(self, bin20):
        eta = special_param(bin20.family, 5, 0) - 0.3
        ev = sterne_pvalue(bin20, 5, eta)
        assert ev.segment == -1
        d = bin20.family.distribution(eta)
        assert ev.value == pytest.approx(d.sf(5), rel=1e-12)

    def test_point_mass_parameters(self, bin20, pois):
        assert sterne_pvalue(bin20, 20, math.inf).value == 1.0
        assert sterne_pvalue(bin20, 5, math.inf).value == 0.0
        assert sterne_pvalue(bin20, 0, -math.inf).value == 1.0
        assert sterne_pvalue(pois, 0, -math.inf).value == 1.0
        with pytest.raises(InadmissibleInfiniteTheta):
            sterne_pvalue(pois, 3, math.inf)

    def test_out_of_support(self, bin20):
        with pytest.raises(OutOfSupport):
            sterne_pvalue(bin20, 21, 0.0)


class TestOracleEquivalence:
    """The piecewise evaluation must agree with naive summation everywhere."""

    def test_binomial(self, bin12):
        etas = np.linspace(-6.0, 6.0, 50) + 0.0123456
        for x in range(13):
            for eta in etas:
                got = sterne_pvalue(bin12, x, float(eta)).value
                want = sterne_pvalue_oracle(bin12, x, float(eta))
                assert got == pytest.approx(want, abs=1e-12)

    def test_odds_ratio(self, or_small):
        etas = np.linspace(-7.0, 7.0, 50) + 0.0123456
        for x in range(7):
            for eta in etas:
                got = sterne_pvalue(or_small, x, float(eta)).value
                want = sterne_pvalue_oracle(or_small, x, float(eta))
                assert got == pytest.approx(want, abs=1e-12)

    def test_poisson(self, pois):
        etas = np.linspace(math.log(0.05), math.log(30.0), 50) + 1e-4
        for x in (0, 3, 7):
            for eta in etas:
                got = sterne_pvalue(pois, x, float(eta)).value
                want = sterne_pvalue_oracle(pois, x, float(eta))
                assert got == pytest.approx(want, abs=1e-9)

    def test_reflected_poisson(self, pois):
        # -X of a Poisson is unbounded below, so the pieces left of the
        # plateau need the unbounded k search of the reflection's reflection
        fam = reflect(pois.family)
        etas = -(np.linspace(math.log(0.05), math.log(30.0), 50) + 1e-4)
        for x in (0, -3, -7):
            for eta in etas:
                got = sterne_pvalue(fam, x, float(eta)).value
                want = sterne_pvalue_oracle(fam, x, float(eta))
                assert got == pytest.approx(want, abs=1e-9)


class TestJumpStructure:
    def test_jump_values_decrease_above_x(self, bin20, or_big):
        for model in (bin20, or_big):
            fam = model.family
            hi = int(fam.support.hi)
            for x in range(int(fam.support.lo), hi):
                vals = [jump_value(fam, x, k) for k in range(x + 1, hi + 1)]
                assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_jump_values_increase_below_x(self, bin20, or_big):
        for model in (bin20, or_big):
            fam = model.family
            lo = int(fam.support.lo)
            for x in range(lo + 1, int(fam.support.hi) + 1):
                vals = [jump_value(fam, x, k) for k in range(lo, x)]
                assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_jump_drops_moving_right(self, bin20):
        # crossing theta_{k,x} rightward removes outcome k from the sum
        for k in (8, 12, 20):
            t = special_param(bin20.family, 5, k)
            assert jump_value(bin20.family, 5, k) > sterne_pvalue(bin20, 5, t + 1e-9).value

    def test_jump_drops_moving_left(self, bin20):
        for k in (0, 2, 3):
            t = special_param(bin20.family, 5, k)
            assert jump_value(bin20.family, 5, k) > sterne_pvalue(bin20, 5, t - 1e-9).value

    def test_jump_limits_match_pmf(self, bin20):
        fam = bin20.family
        for k in (8, 12, 20):
            t, left, right = jump_limits(fam, 5, k)
            assert left == jump_value(fam, 5, k)
            assert left - right == pytest.approx(fam.distribution(t).pmf(k), rel=1e-9)
        for k in (0, 2, 3):
            t, left, right = jump_limits(fam, 5, k)
            assert right == jump_value(fam, 5, k)
            assert right - left == pytest.approx(fam.distribution(t).pmf(k), rel=1e-9)

    @pytest.mark.parametrize("x,k", [(5.7, 8), (True, 3), (5, 8.9), (5, True)])
    def test_jump_limits_reject_non_integer_outcomes(self, bin20, x, k):
        # int() would read these as the outcomes 5, 1, 8 and 1
        with pytest.raises(OutOfSupport):
            jump_limits(bin20, x, k)

    def test_jump_limits_at_sentinels(self, bin20):
        assert jump_limits(bin20, 5, 21) == (math.inf, 0.0, 0.0)
        assert jump_limits(bin20, 5, -1) == (-math.inf, 0.0, 0.0)

    def test_jump_limits_reject_sentinel_lookalikes(self, bin20):
        # 21.0 == 21 and True == 1 == lo - 1, but neither is an integer outcome
        with pytest.raises(OutOfSupport):
            jump_limits(bin20, 5, 21.0)
        fam = LatticeFamily(LatticeSupport(2, 10), lambda xs: -0.3 * xs * xs)
        with pytest.raises(OutOfSupport):
            jump_limits(fam, 5, True)

    @pytest.mark.parametrize("k,shift", [(9, 0.0), (9, 1e-3), (20, 1e-3),
                                         (2, 0.0), (2, -1e-3), (0, -1e-3)])
    def test_pvalue_reads_each_special_parameter_once(self, monkeypatch, bin20, k, shift):
        # off the plateau neither the piece search nor the ``at_jump`` test
        # reads a theta_{k,x} that the call has read before
        eta = special_param(bin20.family, 5, k) + shift
        reads, read = [], exactci.sterne.special_param

        def counted(family, x, j):
            # theta_{-j,-x} of the reflection is -theta_{j,x}: the same read
            reads.append((x, j) if family is bin20.family else (-x, -j))
            return read(family, x, j)

        monkeypatch.setattr("exactci.sterne.special_param", counted)
        ev = sterne_pvalue(bin20, 5, eta)
        assert len(reads) == len(set(reads))
        assert ev.at_jump == (shift == 0.0)
        assert ev.segment == k + (shift > 0) - (shift < 0)
        if shift:
            # at a jump the oracle's tie test f(k) <= f(x) is decided by rounding
            assert ev.value == pytest.approx(sterne_pvalue_oracle(bin20, 5, eta), rel=1e-12)

    @pytest.mark.parametrize("name,x,ks", [
        ("binomial 20", 5, range(-1, 5)),
        ("binomial 20", 20, range(-1, 20)),
        ("oddsratio 49/317/245", 20, range(-1, 20)),
        ("poisson", 3, range(-1, 3)),
        ("poisson", 40, range(-1, 40)),
        ("reflected poisson", -3, range(-60, -3)),
        ("reflected poisson", 0, range(-30, 0)),
    ])
    def test_jump_limits_below_x_equal_the_mirrored_sums(self, name, x, ks):
        family = {"binomial 20": lambda: make_binomial(20).family,
                  "oddsratio 49/317/245": lambda: make_odds_ratio(49, 317, 245).family,
                  "poisson": lambda: make_poisson().family,
                  "reflected poisson": lambda: reflect(make_poisson().family)}[name]()

        def mirrored(k):
            # the limits summed on the family itself, each as P(X >= x) + F(j)
            t = special_param(family, x, k)
            d = family.distribution(t)
            left = min(1.0, max(0.0, d.sf(x) + d.cdf(k - 1)))
            right = min(1.0, max(0.0, d.sf(x) + d.cdf(k))) if k < x - 1 else 1.0
            return t, left, right

        for k in ks:  # the sentinel lo - 1 and the plateau edge x - 1 included
            assert jump_limits(family, x, k) == mirrored(k), k

    @pytest.mark.parametrize("family,x", [
        (lambda: reflect(make_poisson().family), -3),
        (lambda: LatticeFamily(LatticeSupport(-math.inf, 0), lambda xs: -0.01 * xs**2), -3),
        (lambda: make_binomial(20).family, 5),
    ], ids=["reflected poisson", "quadratic below 0", "binomial 20"])
    def test_nan_eta_raises_before_the_piece_search(self, monkeypatch, family, x):
        # the evaluator's error, at once: no piece search walks the support with a nan
        family, reads, read = family(), [], exactci.sterne.special_param
        monkeypatch.setattr("exactci.sterne.special_param", lambda *a: reads.append(a) or read(*a))
        with pytest.raises(ValueError, match="theta must be a float") as err:
            sterne_pvalue(family, x, math.nan)
        assert type(err.value) is ValueError
        assert len(reads) == 2  # the plateau's two edges

    def test_jump_limits_at_plateau_edges(self, bin20):
        _, left, right = jump_limits(bin20, 5, 6)
        assert left == 1.0
        assert right < 1.0
        _, left, right = jump_limits(bin20, 5, 4)
        assert right == 1.0
        assert left < 1.0


class TestPieceConcavity:
    """Between consecutive jumps, log(1 - pi) is strictly concave."""

    @staticmethod
    def check(fam, x):
        lo, hi = int(fam.support.lo), int(fam.support.hi)

        def psi(eta):
            return math.log1p(-sterne_pvalue(fam, x, eta).value)

        pieces = []
        for k in range(x + 2, hi + 1):
            pieces.append((special_param(fam, x, k - 1), special_param(fam, x, k)))
        for k in range(lo, x - 1):
            pieces.append((special_param(fam, x, k), special_param(fam, x, k + 1)))
        for a, b in pieces:
            q1, q2, q3 = (a + f * (b - a) for f in (0.25, 0.5, 0.75))
            assert 2.0 * psi(q2) > psi(q1) + psi(q3)

    def test_binomial(self, bin20):
        for x in range(21):
            self.check(bin20.family, x)

    def test_odds_ratio(self, or_big):
        for x in range(50):
            self.check(or_big.family, x)


class TestStageOne:
    def test_binomial_matches_linear_scan(self, bin20):
        fam = bin20.family
        for x, alpha in ((5, 0.05), (5, 0.2), (0, 0.05), (19, 0.05), (12, 0.01)):
            assert stage_one(fam, x, alpha)[0] == scan_last_jump_above(fam, x, alpha, 20)

    def test_odds_ratio_matches_linear_scan(self, or_big):
        fam = or_big.family
        for x in (0, 17, 42, 48):
            assert stage_one(fam, x, ALPHA)[0] == scan_last_jump_above(fam, x, ALPHA, 49)

    def test_poisson_known_values(self, pois):
        assert stage_one(pois.family, 3, 0.05)[0] == 15
        assert stage_one(pois.family, 0, 0.05)[0] == 8
        assert stage_one(pois.family, 3, 0.05)[0] == scan_last_jump_above(pois.family, 3, 0.05, 40)

    @pytest.mark.parametrize("name,x", [("bin20", 5), ("bin20", 10), ("or_big", 42), ("pois", 3)])
    def test_warm_start_gives_the_cold_k(self, name, x, request):
        # a hint at or below k_star walks up to it; one above it is refused
        # and the cold search runs instead
        fam = request.getfixturevalue(name).family
        k = stage_one(fam, x, ALPHA)[0]
        for start in (x + 1, k - 1, k, k + 1, k + 7):
            assert stage_one(fam, x, ALPHA, start)[0] == k


class TestStageTwo:
    def test_poisson_lands_on_jump(self, pois):
        r = stage_two(pois.family, 3, 15, 0.05, DEFAULT_DELTA)[0]
        assert r.at_jump
        assert r.k_star == 15
        assert r.bound == special_param(pois.family, 3, 15)
        assert math.exp(r.bound) == pytest.approx(8.8077, abs=5e-4)
        assert r.achieved <= 0.05

    def test_binomial_lands_on_jump(self, bin20):
        # at the k* = 14 jump the right limit 0.0466 is already below alpha,
        # so the endpoint is the jump itself, returned exactly
        k = stage_one(bin20.family, 5, ALPHA)[0]
        assert k == 14
        r = stage_two(bin20.family, 5, k, ALPHA, DEFAULT_DELTA)[0]
        assert r.at_jump
        assert r.bound == special_param(bin20.family, 5, 14)
        assert r.achieved == jump_limits(bin20, 5, 14)[2]
        assert r.achieved <= ALPHA
        assert bin20.to_natural(r.bound) == pytest.approx(0.4746, abs=5e-4)

    def test_binomial_interior_root(self, bin20):
        # here the right limit at k* = 18 still exceeds alpha and the
        # endpoint is a root inside the following piece
        k = stage_one(bin20.family, 10, ALPHA)[0]
        assert k == 18
        r = stage_two(bin20.family, 10, k, ALPHA, DEFAULT_DELTA)[0]
        assert not r.at_jump
        assert r.bound == r.bracket[1]
        assert r.bracket[1] - r.bracket[0] <= r.delta
        p_lo, p_hi = r.bracket_pvalues
        assert p_lo > ALPHA >= p_hi
        assert ALPHA - r.achieved <= r.delta

    @pytest.mark.parametrize("model, x", [
        ("bin20", 10), ("bin20", 12), ("or_big", 32), ("pois", -12),
    ])
    def test_root_takes_few_evaluations(self, request, monkeypatch, model, x):
        # two bracket ends, then Newton steps on log pi_k from theta_{k,x};
        # a Poisson root piece lies left of the plateau, so it is solved on
        # the reflection
        fam = request.getfixturevalue(model).family
        fam = reflect(fam) if x < 0 else fam
        k = stage_one(fam, x, ALPHA)[0]
        calls = count_evaluations(monkeypatch)
        r = stage_two(fam, x, k, ALPHA, DEFAULT_DELTA)[0]
        assert not r.at_jump and r.bracket[1] - r.bracket[0] <= r.delta
        assert r.bracket_pvalues[0] > ALPHA >= r.bracket_pvalues[1]
        assert len(calls) <= 8

    @pytest.mark.parametrize("make, x", [
        (lambda: make_binomial(99000), 34000),
        (lambda: make_binomial(999590), 319405),
        (make_poisson, 96000),
    ])
    def test_large_support_interval_takes_few_evaluations(self, monkeypatch, make, x):
        # per end: the probe at x + 2, the Newton steps on log J, and the two
        # bracket ends, which stage two reads instead of evaluating again
        model = make()
        calls = count_evaluations(monkeypatch)
        sterne_interval(model, x, ALPHA)
        assert len(calls) <= 14

    @pytest.mark.parametrize("model, x", [("bin20", 5), ("pois", 3), ("pois", 96000)])
    def test_jump_end_reuses_stage_one_evaluations(self, request, monkeypatch, model, x):
        fam = request.getfixturevalue(model).family
        calls = count_evaluations(monkeypatch)
        k = stage_one(fam, x, ALPHA)[0]
        probes = len(calls)
        assert sterne_upper(fam, x, ALPHA) == special_param(fam, x, k)
        assert len(calls) == 2 * probes

    def test_delta_controls_the_bracket(self, bin20):
        k = stage_one(bin20.family, 10, ALPHA)[0]
        coarse = stage_two(bin20.family, 10, k, ALPHA, delta=1e-4)[0]
        fine = stage_two(bin20.family, 10, k, ALPHA, delta=1e-10)[0]
        assert abs(coarse.bound - fine.bound) <= 1e-4 + 1e-10
        assert coarse.bracket[1] - coarse.bracket[0] <= 1e-4

    def test_delta_below_float_spacing(self, bin20):
        # the bracket runs out of floats before it is 1e-17 wide: it ends as two
        # adjacent floats, inside the wider 1e-15 bracket, on the conservative side
        k = stage_one(bin20.family, 10, ALPHA)[0]
        tiny = stage_two(bin20.family, 10, k, ALPHA, delta=1e-17)[0]
        wide = stage_two(bin20.family, 10, k, ALPHA, delta=1e-15)[0]
        assert math.nextafter(tiny.bracket[0], math.inf) == tiny.bracket[1] == tiny.bound
        assert wide.bracket[0] <= tiny.bracket[0] < tiny.bound <= wide.bracket[1]
        assert tiny.achieved <= ALPHA
        assert sterne_interval(bin20, 10, ALPHA, delta=1e-17).theta_hi == tiny.bound

    def test_past_last_jump_is_the_one_sided_bound(self, bin20):
        # at k = max(X) only F(x) remains; its root is the one-sided bound
        assert stage_one(bin20.family, 17, ALPHA)[0] == 20
        r = stage_two(bin20.family, 17, 20, ALPHA, DEFAULT_DELTA)[0]
        assert not r.at_jump
        assert r.bound == upper_bound(bin20, 17, ALPHA)
        assert r.achieved == bin20.family.distribution(r.bound).cdf(17) <= ALPHA

    def test_past_last_jump_reads_the_solved_tail(self, monkeypatch, bin20):
        # the end's p-value is the tail the one-sided solve certified, so the
        # end costs stage one's probes and that solve, with no further evaluation
        calls = count_evaluations(monkeypatch)
        stage_one(bin20.family, 17, ALPHA)
        probes = len(calls)
        calls.clear()
        upper_bound(bin20, 17, ALPHA)
        solve = len(calls)
        calls.clear()
        sterne_upper(bin20, 17, ALPHA)
        assert len(calls) == probes + solve

    # True is no tolerance of 1.0
    @pytest.mark.parametrize("delta", [0.0, -1e-9, math.inf, "tight", math.nan, None, True,
                                       np.bool_(True)])
    def test_bad_delta(self, bin20, delta):
        with pytest.raises(BadDelta):
            sterne_interval(bin20, 5, ALPHA, delta=delta)

    def test_numpy_scalars_accepted(self, bin20):
        alpha, delta = np.float32(0.05), np.float32(1e-6)
        want = sterne_interval(bin20, 5, float(alpha), delta=float(delta))
        assert sterne_interval(bin20, 5, alpha, delta=delta) == want
        assert sterne_upper(bin20, 5, np.float16(0.25), np.int64(1)) == sterne_upper(bin20, 5, 0.25, 1.0)


class TestStagesHoldEveryEvaluation:
    """Each evaluation of a Sterne end, single or swept, upper or lower, runs
    inside ``stage_one`` or ``stage_two``, called through the module's names, so a
    tracer that wraps those two names counts all of them."""

    def test_no_evaluation_outside_a_stage(self, monkeypatch, bin20, or_big, pois):
        depth, inside, outside = [0], [], []
        evaluate = LatticeFamily.distribution

        def counted(self, theta):
            (inside if depth[0] else outside).append(theta)
            return evaluate(self, theta)

        def staged(stage):
            def wrapped(*args):
                depth[0] += 1
                try:
                    return stage(*args)
                finally:
                    depth[0] -= 1

            return wrapped

        monkeypatch.setattr(LatticeFamily, "distribution", counted)
        for name in ("stage_one", "stage_two"):
            monkeypatch.setattr(exactci.sterne, name, staged(getattr(exactci.sterne, name)))
        for x in (0, 5, 20):
            sterne_interval(bin20, x, ALPHA)
        sterne_interval(or_big, 42, ALPHA)
        sterne_interval(pois, 3, ALPHA)
        for model in (bin20, or_big):
            lo, hi = int(model.family.support.lo), int(model.family.support.hi)
            exact_coverage(model, "sterne", ALPHA, np.linspace(-3.0, 3.0, 7))
            length_table(model, ["sterne"], ALPHA, range(lo, hi + 1))
        assert inside and not outside


class TestEndpoints:
    def test_support_edges(self, bin20, pois):
        assert sterne_upper(bin20, 20, ALPHA) == math.inf
        assert sterne_lower(bin20, 0, ALPHA) == -math.inf
        assert sterne_lower(pois, 0, ALPHA) == -math.inf

    def test_binomial_worked_case(self, bin20):
        ci = sterne_interval(bin20, 5, ALPHA)
        assert ci.method == "sterne"
        assert ci.natural_lo == pytest.approx(0.1041, abs=5e-4)
        assert ci.natural_hi == pytest.approx(0.4746, abs=5e-4)

    def test_binomial_edge_intervals(self, bin20):
        ci = sterne_interval(bin20, 20, ALPHA)
        assert ci.theta_hi == math.inf and ci.natural_hi == 1.0
        ci = sterne_interval(bin20, 0, ALPHA)
        assert ci.theta_lo == -math.inf and ci.natural_lo == 0.0

    def test_poisson_worked_cases(self, pois):
        ci = sterne_interval(pois, 3, ALPHA)
        assert ci.natural_lo == pytest.approx(0.8176, abs=5e-4)
        assert ci.natural_hi == pytest.approx(8.8077, abs=5e-4)
        ci = sterne_interval(pois, 7, ALPHA)
        assert ci.natural_lo == pytest.approx(3.2853, abs=5e-4)
        assert ci.natural_hi == pytest.approx(14.3403, abs=5e-4)

    def test_poisson_zero_upper_is_eighth_root(self, pois):
        # the endpoint is the jump theta_{8,0}, i.e. lambda = (8!)^(1/8)
        b = sterne_upper(pois, 0, ALPHA)
        assert b == special_param(pois.family, 0, 8)
        assert math.exp(b) == pytest.approx(math.factorial(8) ** 0.125, rel=1e-12)

    def test_odds_ratio_worked_case(self, or_big):
        ci = sterne_interval(or_big, 42, ALPHA)
        assert ci.natural_lo == pytest.approx(1.4427713547826133, abs=1e-6)
        assert ci.natural_hi == pytest.approx(8.02120006211307, abs=1e-6)

    def test_poisson_upper_always_returns_a_jump(self, pois):
        # the no-right-tail geometry makes every Poisson upper endpoint a jump
        for alpha in (0.1, 0.05, 0.01):
            for x in range(16):
                b = sterne_upper(pois, x, alpha)
                assert b == special_param(pois.family, x, stage_one(pois.family, x, alpha)[0])

    def test_upper_isotonic_in_x_and_alpha(self, pois, bin20):
        ups = [sterne_upper(pois, x, ALPHA) for x in range(16)]
        assert all(a < b for a, b in zip(ups, ups[1:]))
        by_alpha = [sterne_upper(bin20, 5, a) for a in (0.2, 0.05, 0.01)]
        assert by_alpha[0] < by_alpha[1] < by_alpha[2]

    @pytest.mark.parametrize("fn", [sterne_interval, sterne_upper, sterne_lower])
    @pytest.mark.parametrize("x", [5.7, True, 21])
    def test_x_outside_support_named(self, bin20, fn, x):
        # checked before any int(x): 5.7 and True are not outcomes, and 21
        # is named as given, not as its reflection -21
        with pytest.raises(OutOfSupport, match=re.escape(f"x = {x} is not")):
            fn(bin20, x, ALPHA)

    def test_binomial_mirror_symmetry(self, bin20):
        # swapping successes and failures flips the parameter sign
        for x in range(1, 20):
            a = sterne_lower(bin20, x, ALPHA)
            b = sterne_upper(bin20, 20 - x, ALPHA)
            assert abs(a + b) <= 1.01 * 1e-8

    def test_pvalue_confidence_duality(self, bin20, or_big, pois):
        # every eta whose p-value clears alpha lies inside the reported hull
        for model, x in ((bin20, 5), (or_big, 42), (pois, 3)):
            ci = sterne_interval(model, x, ALPHA)
            for eta in np.linspace(ci.theta_lo - 1.0, ci.theta_hi + 1.0, 2001):
                if sterne_pvalue(model, x, float(eta)).value > ALPHA:
                    assert ci.theta_lo <= eta <= ci.theta_hi

    def test_achieved_pvalues_by_branch(self, bin20):
        # upper endpoint of x=5 sits on a jump: achieved is its right limit;
        # the lower endpoint is a plain cdf root, so achieved is alpha up to
        # the root solver's residual
        ci = sterne_interval(bin20, 5, ALPHA, delta=1e-8)
        assert ci.pvalue_hi == jump_limits(bin20, 5, 14)[2]
        assert ci.pvalue_hi <= ALPHA
        assert ci.pvalue_lo == pytest.approx(ALPHA, abs=5e-9)
        # a bisected endpoint keeps the achieved value within delta of alpha
        ci = sterne_interval(bin20, 10, ALPHA, delta=1e-8)
        assert ALPHA - 1e-8 <= ci.pvalue_hi <= ALPHA + 5e-9

    def test_crossing_brackets_the_printed_value(self, bin20):
        # the 95% upper endpoint in p sits between 0.4745 and 0.4746
        assert sterne_pvalue(bin20, 5, bin20.from_natural(0.4745)).value > ALPHA
        assert sterne_pvalue(bin20, 5, bin20.from_natural(0.4747)).value < ALPHA

    def test_binomial_million_against_scipy(self):
        # pi summed directly from scipy's pmf clears alpha just inside each
        # end of the hull and not just outside it
        n, x = 10**6, 3 * 10**5
        model = make_binomial(n)
        ci = sterne_interval(model, x, ALPHA)
        ks = np.arange(n + 1)

        def pi(theta):
            pmf = binom.pmf(ks, n, model.to_natural(theta))
            return float(pmf[pmf <= pmf[x]].sum())

        assert pi(ci.theta_lo - 1e-7) <= ALPHA < pi(ci.theta_lo + 1e-7)
        assert pi(ci.theta_hi + 1e-7) <= ALPHA < pi(ci.theta_hi - 1e-7)

    def test_family_inadmissible_at_zero(self):
        # negative binomial weights (r = 3) sum only for theta < 0, so the
        # first-use check must look at the theta evaluated, not at 0
        r = 3.0
        fam = LatticeFamily(
            LatticeSupport(0, math.inf),
            lambda xs: gammaln(np.asarray(xs, dtype=float) + r) - gammaln(np.asarray(xs) + 1.0),
        )
        ci = sterne_interval(fam, 5, ALPHA)
        assert ci.theta_lo < ci.theta_hi < 0.0
        for t in (ci.theta_lo - 1e-6, ci.theta_hi + 1e-6):
            assert sterne_pvalue_oracle(fam, 5, t) <= ALPHA
        for t in (ci.theta_lo + 1e-6, ci.theta_hi - 1e-6):
            assert sterne_pvalue_oracle(fam, 5, t) > ALPHA

    def test_log_convex_weights_are_refused(self):
        # unchecked, these weights gave theta_hi = -1.40, below the (inverted)
        # plateau of x = 4
        fam = LatticeFamily(LatticeSupport(0, 30), lambda xs: 0.05 * xs * xs)
        with pytest.raises(NotLogConcave) as info:
            sterne_interval(fam, 4, ALPHA)
        assert info.value.x == 1


def negative_binomial(r=3.0):
    """Weights C(x + r - 1, x) on 0, 1, ...; they sum only for theta < 0."""
    return LatticeFamily(
        LatticeSupport(0, math.inf),
        lambda xs: gammaln(np.asarray(xs, dtype=float) + r) - gammaln(np.asarray(xs) + 1.0),
    )


def harmonic_family():
    """Log-concave weights with slopes -1 + 1/(x+1): theta_{k,x} converges to
    1 and the jump values decay only like log(k)/k, so a small alpha pushes
    the crossing far beyond any affordable doubling probe."""

    def logw(x):
        x = np.asarray(x, dtype=float)
        return -x + digamma(x + 1.0) + np.euler_gamma

    return LatticeFamily(support=LatticeSupport(0, math.inf), log_weight=logw)


class TestDegenerateSearches:
    def test_divergent_stage_one(self, monkeypatch):
        # jump value near k = 2^14 is still about 2e-3, and the alpha = 1e-4
        # crossing lies past k = 1e5, so the capped probe must give up
        monkeypatch.setattr(exactci.family, "STEP_CAP", 1 << 14)
        fam = harmonic_family()
        with pytest.raises(DivergentSearch):
            stage_one(fam, 3, 1e-4)

    def test_stage_one_stops_at_the_step_cap(self, monkeypatch, bin12):
        # the jump values of x = 2 stay at or above 1e-12 up to k = 12, past
        # the capped probe at x + 8 = 10, which ends the search; the window
        # searches of binomial 12 take no step above 8, so none of them raises
        monkeypatch.setattr(exactci.family, "STEP_CAP", 8)
        calls = count_evaluations(monkeypatch)
        with pytest.raises(DivergentSearch, match="from x = 2 did not end"):
            stage_one(bin12.family, 2, 1e-12)
        assert max(calls) == special_param(bin12.family, 2, 10)

    def test_reduced_step_cap_keeps_a_crossing_below_it(self, monkeypatch):
        # at alpha = 0.1 the jump values of x = 3 cross at k = 168, far below
        # the capped probe at x + 2^14, which the search must not reach
        monkeypatch.setattr(exactci.family, "STEP_CAP", 1 << 14)
        k = stage_one(harmonic_family(), 3, 0.1)[0]
        assert k == scan_last_jump_above(harmonic_family(), 3, 0.1, 200) == 168

    def test_huge_special_parameters(self):
        # theta near 1e9 has a float spacing of 1.2e-7, above the default
        # delta, so stage two ends on adjacent floats instead of a cap
        fam = LatticeFamily(LatticeSupport(0, 40), lambda xs: -1e8 * xs**2)
        ci = sterne_interval(fam, 5, ALPHA)
        # the plateau of x = 5 is [9e8, 1.1e9]
        assert 8.9e8 < ci.theta_lo < 9e8 and 1.1e9 < ci.theta_hi < 1.11e9
        assert ci.pvalue_lo <= ALPHA and ci.pvalue_hi <= ALPHA
        assert sterne_pvalue(fam, 5, ci.theta_lo + 1.0).value > ALPHA
        assert sterne_pvalue(fam, 5, ci.theta_hi - 1.0).value > ALPHA

    def test_probes_past_the_window_cap(self):
        # near theta = 0 the window needs about 746/|theta| points, so stage
        # one's doubling probes ask for windows past the cap before the
        # crossing; such a probe counts as past it
        fam = negative_binomial()
        ci = sterne_interval(fam, 1, 1e-6)
        for t, side in ((ci.theta_lo, -1.0), (ci.theta_hi, 1.0)):
            assert sterne_pvalue_oracle(fam, 1, t + side * 1e-6) <= 1e-6
            assert sterne_pvalue_oracle(fam, 1, t - side * 1e-6) > 1e-6
        # here the search ends on a probe past the cap
        with pytest.raises(UnboundedEnumeration):
            stage_one(fam, 5, 1e-6)
        with pytest.raises(UnboundedEnumeration):
            sterne_interval(fam, 1, 1e-7)

    def test_oracle_rejects_offwindow_x(self, pois):
        # the naive oracle only sees the summation window; x far outside it
        # is a usage error rather than a silent zero
        with pytest.raises(OutOfSupport):
            sterne_pvalue_oracle(pois, 500, math.log(0.01))


def two_sided_family():
    """Weights exp(-x^2 / 50) on all of Z: both sides unbounded."""
    return LatticeFamily(LatticeSupport(-math.inf, math.inf),
                         lambda xs: -np.asarray(xs, dtype=float) ** 2 / 50)


# name: (fresh family, theta range, outcome range); harmonic thetas stay
# below 0.98, where windows are under 4e4 points
WARM_FAMILIES = {
    "poisson": (lambda: make_poisson().family, (-6.0, 12.0), (0, 200)),
    "reflected poisson": (lambda: reflect(make_poisson().family), (-12.0, 6.0), (-200, 0)),
    "harmonic": (harmonic_family, (-10.0, 0.98), (0, 3)),
    "two-sided": (two_sided_family, (-40.0, 40.0), (-50, 50)),
}


class TestWarmWindowSearch:
    """A family with an unbounded side starts each window search at its last
    window; the window, the pmf and the intervals must not depend on that."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_warm_family_equals_a_cold_copy(self, data):
        make, (t_lo, t_hi), (x_lo, x_hi) = WARM_FAMILIES[
            data.draw(st.sampled_from(sorted(WARM_FAMILIES)))]
        warm = make()
        for theta in data.draw(st.lists(st.floats(t_lo, t_hi), min_size=1, max_size=8)):
            dw, dc = warm.distribution(theta), make().distribution(theta)
            assert np.array_equal(dw.xs, dc.xs)
            assert dw.pmf_values.tobytes() == dc.pmf_values.tobytes()
        x = data.draw(st.integers(x_lo, x_hi))
        alpha = data.draw(st.sampled_from([0.3, 0.1, 0.05]))
        assert sterne_interval(warm, x, alpha) == sterne_interval(make(), x, alpha)

    @pytest.mark.parametrize("name, theta, warm_up, error", [
        ("poisson", 16.0, [14.0, 2.0], UnboundedEnumeration),
        ("poisson", 1e3, [14.0], DivergentSearch),
        ("reflected poisson", -16.0, [-14.0], UnboundedEnumeration),
        ("harmonic", 1 - 1e-4, [0.9, 0.98], UnboundedEnumeration),
        ("harmonic", 1.0, [0.9], DivergentSearch),
    ])
    def test_past_the_cap_raises_the_same_error_warm_or_cold(self, name, theta, warm_up, error):
        make = WARM_FAMILIES[name][0]
        with pytest.raises(error):
            make().distribution(theta)
        warm = make()
        for t in warm_up:
            warm.distribution(t)
        with pytest.raises(error):
            warm.distribution(theta)


def _log_uniform(lo: float, hi: float):
    return st.floats(0.0, 1.0).map(lambda u: math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _outcome_below_max(lo: int, hi: int):
    """Integers in [lo, hi), spread over magnitudes up to 1e6."""
    return st.integers(0, 6).flatmap(lambda e: st.integers(lo, max(lo, min(hi - 1, lo + 10**e))))


# name: (draw of (fresh-family maker, x), smallest alpha). Harmonic alphas stay
# above 0.1, where every probe's theta stays below 0.98. Negative binomial
# outcomes stay below 30 and alphas above 1e-3: past that, the windows near
# theta = 0 approach the 2e6-point cap and one example takes seconds, so that
# case is the single parametrized one below.
K_STAR_CASES = {
    "binomial": (st.integers(1, 10**6).flatmap(lambda n: st.tuples(
        st.just(lambda: make_binomial(n).family), _outcome_below_max(0, n))), 1e-15),
    "poisson": (st.tuples(st.just(lambda: make_poisson().family),
                          _outcome_below_max(0, 10**6 + 1)), 1e-15),
    "reflected poisson": (st.tuples(st.just(lambda: reflect(make_poisson().family)),
                                    _outcome_below_max(1, 10**6 + 1).map(lambda z: -z)), 1e-15),
    "odds ratio": (st.tuples(st.integers(1, 3000), st.integers(1, 3000)).flatmap(
        lambda ns: st.integers(1, sum(ns) - 1).flatmap(lambda m: st.tuples(
            st.just(lambda: make_odds_ratio(*ns, m).family),
            _outcome_below_max(max(0, m - ns[1]), min(ns[0], m))))), 1e-15),
    "harmonic": (st.tuples(st.just(harmonic_family), st.integers(0, 3)), 0.1),
    "negative binomial": (st.tuples(st.just(negative_binomial), st.integers(0, 30)), 1e-3),
    "two-sided": (st.tuples(st.just(two_sided_family), st.integers(-300, 300)), 1e-15),
}


def _k_or_error(search):
    try:
        return search()
    except ExactCIError as err:
        return type(err), str(err)


class TestKStarReference:
    """The Newton-guided stage one, cold or warm-started, ends on the k of the
    doubling and bisection search, or raises its error."""

    @staticmethod
    def check(fam, x, alpha, draw_start):
        # the log-concavity check runs at the first theta a family evaluates;
        # running it here gives all three searches the same one
        _k_or_error(lambda: fam.distribution(special_param(fam, x, x + 1)))
        expected = _k_or_error(lambda: k_star_reference(fam, x, alpha))
        assert _k_or_error(lambda: stage_one(fam, x, alpha)[0]) == expected
        start = draw_start((expected if isinstance(expected, int) else x + 64) + 8)
        assert _k_or_error(lambda: stage_one(fam, x, alpha, start)[0]) == expected
        return expected

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_bisection_search(self, data):
        name = data.draw(st.sampled_from(sorted(K_STAR_CASES)))
        cases, smallest = K_STAR_CASES[name]
        make, x = data.draw(cases)
        alpha = data.draw(_log_uniform(smallest, 0.5))
        self.check(make(), x, alpha, lambda top: data.draw(st.integers(x + 1, top)))

    def test_probes_past_the_window_cap(self):
        # probes whose window is too large count as past the crossing, and the
        # search ends on one of them
        assert self.check(negative_binomial(), 5, 1e-6, lambda top: 14)[0] is UnboundedEnumeration
