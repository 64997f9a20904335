import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactci.sterne

from exactci import (
    BadGrid,
    InadmissibleInfiniteTheta,
    LatticeFamily,
    OutOfSupport,
    UnboundedEnumeration,
    exact_coverage,
    length_table,
    lower_bound,
    make_binomial,
    make_odds_ratio,
    make_poisson,
    special_param,
    upper_bound,
    write_csv,
)
from exactci.coverage import _bounds_of, _grid_sums, interval_bounds
from exactci.family import reflect
from exactci.sterne import (DEFAULT_DELTA, _lower_result, _sweep, _two_tails, stage_one,
                            sterne_lower)
from oracles import count_evaluations

GRID_95 = None  # built per model below


def theta_grid(model, lo, hi, n=501):
    return np.linspace(model.from_natural(lo), model.from_natural(hi), n)


class TestExactCoverage:
    @pytest.mark.parametrize("method", ["sterne", "clopper_pearson", "lower", "upper"])
    def test_binomial_never_undercovers(self, bin20, method):
        grid = theta_grid(bin20, 0.005, 0.995)
        report = exact_coverage(bin20, method, 0.05, grid)
        assert report.min_coverage >= 0.95 - 1e-9
        assert report.method == method
        assert len(report.coverage) == len(report.grid) >= 501
        assert report.expected_length is not None

    @pytest.mark.parametrize("method", ["sterne", "cp"])
    def test_odds_ratio_never_undercovers(self, or_big, method):
        grid = np.linspace(-4.0, 4.0, 501)
        report = exact_coverage(or_big, method, 0.05, grid)
        assert report.min_coverage >= 0.95 - 1e-9

    @pytest.mark.parametrize("method", ["sterne", "cp"])
    def test_poisson_never_undercovers(self, pois, method):
        grid = np.linspace(math.log(0.1), math.log(25.0), 501)
        report = exact_coverage(pois, method, 0.05, grid)
        assert report.min_coverage >= 0.95 - 1e-9
        assert report.expected_length is None  # length diverges on this scale

    def test_point_mass_grid(self, bin20):
        report = exact_coverage(bin20, "sterne", 0.05, [-math.inf])
        assert report.min_coverage == 1.0
        assert report.natural[0] == 0.0

    def test_endpoints_are_audited(self, bin20):
        grid = theta_grid(bin20, 0.1, 0.9, 11)
        with_ends = exact_coverage(bin20, "sterne", 0.05, grid)
        at_user_grid = np.isin(with_ends.grid, grid)
        assert at_user_grid.sum() == 11
        assert len(with_ends.grid) > 11
        assert with_ends.min_coverage <= with_ends.coverage[at_user_grid].min() + 1e-15

    def test_refining_the_grid_cannot_raise_the_minimum(self, bin20):
        coarse = theta_grid(bin20, 0.01, 0.99, 251)
        mids = 0.5 * (coarse[:-1] + coarse[1:])
        fine = np.sort(np.concatenate([coarse, mids]))
        r_coarse = exact_coverage(bin20, "clopper_pearson", 0.05, coarse)
        r_fine = exact_coverage(bin20, "clopper_pearson", 0.05, fine)
        assert r_fine.min_coverage <= r_coarse.min_coverage + 1e-12

    def test_unbounded_below_rejected(self, pois):
        with pytest.raises(UnboundedEnumeration):
            exact_coverage(reflect(pois.family), "sterne", 0.05, [0.0])

    def test_infinite_theta_on_an_unbounded_side_rejected(self, pois):
        with pytest.raises(InadmissibleInfiniteTheta):
            exact_coverage(pois, "sterne", 0.05, [0.0, math.inf])

    def test_empty_grid_rejected(self, bin20):
        with pytest.raises(BadGrid):
            exact_coverage(bin20, "sterne", 0.05, [])

    def test_nan_in_grid_rejected(self, bin20):
        with pytest.raises(BadGrid):
            exact_coverage(bin20, "sterne", 0.05, [0.0, math.nan])

    def test_unknown_method_rejected(self, bin20):
        with pytest.raises(ValueError):
            exact_coverage(bin20, "wald", 0.05, [0.0])

    def test_cp_alias_canonicalized(self, bin20):
        report = exact_coverage(bin20, "cp", 0.05, [0.0])
        assert report.method == "clopper_pearson"


class TestIntervalBounds:
    def test_one_sided_shapes(self, bin20):
        a, b, na, nb = interval_bounds(bin20, "lower", 5, 0.05)
        assert a == lower_bound(bin20, 5, 0.05)
        assert b == math.inf and nb == 1.0
        a, b, na, nb = interval_bounds(bin20, "upper", 5, 0.05)
        assert a == -math.inf and na == 0.0
        assert b == upper_bound(bin20, 5, 0.05)

    def test_unknown_method(self, bin20):
        with pytest.raises(ValueError):
            interval_bounds(bin20, "wald", 5, 0.05)


class TestLengthTable:
    def test_poisson_worked_rows(self, pois):
        lt = length_table(pois, ["sterne", "cp"], 0.05, [0, 3])
        assert lt["sterne"][0] == pytest.approx(3.7644, abs=1e-3)
        assert lt["clopper_pearson"][0] == pytest.approx(3.6889, abs=1e-3)
        assert lt["sterne"][1] == pytest.approx(7.9901, abs=1e-3)
        assert lt["clopper_pearson"][1] == pytest.approx(8.1487, abs=1e-3)
        # no uniform winner: the equal-tail interval is shorter at x = 0
        assert lt["sterne"][0] > lt["clopper_pearson"][0]
        assert lt["sterne"][1] < lt["clopper_pearson"][1]

    def test_binomial_sterne_never_longer(self, bin20):
        lt = length_table(bin20, ["sterne", "cp"], 0.05, range(21))
        assert np.all(lt["sterne"] <= lt["clopper_pearson"] + 1e-12)

    def test_lengths_symmetric_in_x(self, bin20):
        st = length_table(bin20, ["sterne"], 0.05, range(21))["sterne"]
        np.testing.assert_allclose(st, st[::-1], atol=1e-9)

    def test_one_sided_lengths(self, bin20, pois):
        # a lower interval runs to the top of the natural scale: 1 for the
        # success probability, infinity for the Poisson mean
        lt = length_table(bin20, ["lower"], 0.05, [5])
        want = 1.0 - bin20.to_natural(lower_bound(bin20, 5, 0.05))
        assert lt["lower"][0] == pytest.approx(want, abs=1e-15)
        lt = length_table(pois, ["lower"], 0.05, [5])
        assert lt["lower"][0] == math.inf

    @pytest.mark.parametrize("xs", [[5, 5.7], [5, True]])
    @pytest.mark.parametrize("method", ["sterne", "cp"])
    def test_non_integer_outcomes_rejected(self, bin20, method, xs):
        # int() would read them as 5 and 1, and give rows for them
        with pytest.raises(OutOfSupport):
            length_table(bin20, [method], 0.05, xs)


SWEEPS = [(make_binomial(20), 8.0), (make_binomial(200), 8.0),
          (make_odds_ratio(49, 317, 245), 4.0), (make_poisson(), 3.0)]


class TestSterneSweep:
    """Whole-support sweeps warm-start stage one and read most lower ends off
    the k_star staircase, with per-x results unchanged."""

    @pytest.mark.parametrize("model,span", SWEEPS)
    def test_sweep_endpoints_equal_single_calls(self, model, span):
        support = model.family.support
        xs = list(range(int(support.lo), int(support.hi) + 1 if support.bounded else 80))
        single = [interval_bounds(model, "sterne", x, 0.05) for x in xs]
        # the audited grid is the user grid plus every endpoint inside it
        grid = np.linspace(-span, span, 5).tolist()
        ends = [t for row in single for t in row[:2] if -span <= t <= span]
        report = exact_coverage(model, "sterne", 0.05, grid)
        assert report.grid.tolist() == sorted(set(grid + ends))
        lengths = length_table(model, ["sterne"], 0.05, xs[::-1])["sterne"]
        assert lengths.tolist() == [nat_hi - nat_lo for _, _, nat_lo, nat_hi in single[::-1]]

    def test_certified_lower_jump_ends_make_no_reflected_evaluation(self, monkeypatch):
        # where the upper search of x* ends at k*(x*) = z and the lower end of
        # z is the jump theta_{x*,z}, the sweep reads that end off the upper
        # search and does no work on the reflection for z
        family = make_binomial(200).family
        mirror = reflect(family)
        k_star = {x: stage_one(family, x, 0.05)[0] for x in range(200)}
        single = {z: _lower_result(family, z, 0.05, DEFAULT_DELTA) for z in range(1, 201)}
        jumps = {z for z, r in single.items() if r.at_jump and k_star[r.k_star] == z}
        assert len(jumps) > 150
        reflected, called = [], []
        evaluate = LatticeFamily.distribution

        def counted(self, theta):
            if self is mirror:
                reflected.append(theta)
            return evaluate(self, theta)

        def spy(name):
            # a certified root end runs stage two alone, and every other end runs it
            # through _upper_result
            inner = getattr(exactci.sterne, name)

            def spied(fam, x, *args):
                if fam is mirror:
                    called.append(-x)
                return inner(fam, x, *args)

            monkeypatch.setattr(exactci.sterne, name, spied)

        monkeypatch.setattr(LatticeFamily, "distribution", counted)
        spy("_upper_result")
        spy("stage_two")
        ends = _sweep(family, range(201), 0.05, DEFAULT_DELTA)
        assert all(ends[z][0] == single[z].bound for z in jumps)
        assert not jumps & set(called)
        assert not {-single[z].bound for z in jumps} & set(reflected)
        assert 0 < len(reflected) < 200

    def test_sweep_equals_single_calls_when_alpha_ties_a_jump_value(self):
        # alpha is a value read at theta_{k,x}, the jump value J(x; k) or
        # q = P(X <= x - 1) + P(X >= k); the reflection reads the family's
        # sums backwards, so it reads the same doubles, and the staircase and
        # the reflected search agree on the lower end of k at each of them
        model = make_binomial(12)
        family, mirror = model.family, reflect(model.family)
        ties = []
        for x in range(12):
            for k in range(x + 2, 13):
                d = family.distribution(special_param(family, x, k))
                d_mirror = mirror.distribution(special_param(mirror, -k, -x))
                for a, b in ((k, x), (k, x - 1)):
                    v = _two_tails(d, a, b)
                    assert _two_tails(d_mirror, -b, -a) == v
                    ties += [(k, v)] if 1e-6 < v < 0.5 else []
        assert len(ties) > 40
        for k, alpha in ties:
            assert _sweep(family, range(13), alpha, DEFAULT_DELTA)[k][0] == sterne_lower(model, k, alpha)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sweep_equals_single_calls_on_random_outcomes(self, data):
        # contiguous xs certify most lower ends off the staircase; sparse xs,
        # and the first outcome of a range above the support minimum, fall back
        # to the reflected search
        kind = data.draw(st.sampled_from(["binomial", "odds_ratio", "poisson"]))
        if kind == "binomial":
            model = make_binomial(data.draw(st.integers(1, 300)))
        elif kind == "odds_ratio":
            n1, n2 = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 400))
            model = make_odds_ratio(n1, n2, data.draw(st.integers(1, n1 + n2 - 1)))
        else:
            model = make_poisson()
        support = model.family.support
        lo, hi = int(support.lo), int(support.hi) if support.bounded else 200
        a = data.draw(st.integers(lo, hi))
        b = data.draw(st.integers(a, min(hi, a + 60)))
        if data.draw(st.booleans()):
            xs = data.draw(st.lists(st.integers(a, b), min_size=1, unique=True))
        else:
            xs = list(range(a, b + 1))
        alpha = 10.0 ** data.draw(st.floats(-6.0, math.log10(0.5)))
        ends = _sweep(model.family, xs, alpha, DEFAULT_DELTA)
        for x in xs:
            assert ends[x] == interval_bounds(model, "sterne", x, alpha)[:2]

def per_theta_sums(family, grid, t_lo, t_hi, lengths):
    """Coverage and expected length from one ``distribution`` per theta."""
    x0, coverage, expected = int(family.support.lo), [], []
    for eta in grid:
        d = family.distribution(eta)
        i = d.xs.astype(int) - x0  # xs are floats
        pmf, i = d.pmf_values[i < len(t_lo)], i[i < len(t_lo)]
        coverage.append(pmf[(t_lo[i] <= eta) & (eta <= t_hi[i])].sum())
        if lengths is not None:
            finite = np.isfinite(lengths[i])
            infinite_mass = np.any(pmf[~finite] > 0.0)
            expected.append(math.inf if infinite_mass else pmf[finite] @ lengths[i][finite])
    return np.asarray(coverage), None if lengths is None else np.asarray(expected)


AUDITS = [(make_binomial(20), "sterne", (0.01, 0.99)), (make_binomial(200), "sterne", (0.01, 0.99)),
          (make_binomial(200), "cp", (0.01, 0.99)),
          (make_odds_ratio(49, 317, 245), "sterne", (0.1, 10.0)),
          (make_odds_ratio(49, 317, 245), "lower", (0.1, 10.0)),
          (make_odds_ratio(49, 317, 245), "upper", (0.1, 10.0)),
          (make_poisson(), "sterne", (0.5, 20.0))]


class TestBlockedGridSums:
    """The grid is summed in blocks; each row must equal one pmf sum per theta."""

    @pytest.mark.parametrize("model,method,span", AUDITS)
    def test_audit_equals_per_theta_sums(self, model, method, span):
        family = model.family
        grid = [model.from_natural(v) for v in np.linspace(*span, 61)]
        if family.support.bounded:
            grid += [-math.inf, math.inf]
        report = exact_coverage(model, method, 0.05, grid)
        xs = range(int(family.support.lo), int(family.support.lo) + 1000)
        if family.support.bounded:
            xs = range(int(family.support.lo), int(family.support.hi) + 1)
        t_lo, t_hi, n_lo, n_hi = map(np.asarray, zip(*_bounds_of(model, report.method, xs, 0.05,
                                                                DEFAULT_DELTA)))
        lengths = n_hi - n_lo if family.support.bounded else None
        coverage, expected = per_theta_sums(family, report.grid, t_lo, t_hi, lengths)
        np.testing.assert_allclose(report.coverage, coverage, rtol=1e-15, atol=0.0)
        if lengths is None:
            assert report.expected_length is None
        else:
            np.testing.assert_allclose(report.expected_length, expected, rtol=1e-15, atol=0.0)
        if method in ("lower", "upper"):
            # the odds ratio has no finite top, so some outcomes have infinite lengths
            assert np.isinf(report.expected_length).any()

    def test_large_support_blocks_stay_small(self):
        # windows of up to 1.2e4 points, from near one support end to the other:
        # near the low end a block has many rows, whose windows widen across
        # it, and must be cut short (without that cut the peak reads 2.3 MB)
        model = make_binomial(100000)
        family = model.family
        family.distribution(0.0)
        grid = [-math.inf] + [model.from_natural(v) for v in np.linspace(1e-4, 1 - 1e-4, 500)]
        x = np.arange(100001)
        t_lo = np.asarray([model.from_natural(v) for v in np.clip((x - 400) / 1e5, 0.0, 1.0)])
        t_hi = np.asarray([model.from_natural(v) for v in np.clip((x + 400) / 1e5, 0.0, 1.0)])
        lengths = np.where(x % 1000 == 7, math.inf, 800.0 / 1e5)
        tracemalloc.start()
        try:
            coverage, expected = _grid_sums(family, grid, t_lo, t_hi, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        want_coverage, want_expected = per_theta_sums(family, grid, t_lo, t_hi, lengths)
        np.testing.assert_allclose(coverage, want_coverage, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(expected, want_expected, rtol=1e-15, atol=0.0)
        assert np.isinf(expected).any() and np.isfinite(expected).any()

    @pytest.mark.parametrize("method", ["sterne", "cp", "lower"])
    def test_grid_stage_makes_no_evaluation_on_a_bounded_support(self, monkeypatch, method):
        model = make_binomial(200)
        calls, at_grid = count_evaluations(monkeypatch), []

        def bounds_of(*args):
            rows = _bounds_of(*args)
            at_grid.append(len(calls))
            return rows

        monkeypatch.setattr("exactci.coverage._bounds_of", bounds_of)
        report = exact_coverage(model, method, 0.05, theta_grid(model, 0.005, 0.995))
        assert len(report.grid) > 501
        assert len(calls) == at_grid[0] > 0

    def test_sweep_evaluations(self, monkeypatch):
        # k_star moves by one between most neighbouring outcomes, the warm
        # start probes one past the last k_star first, and most lower ends are
        # read off the upper ends' k_star staircase
        family = make_binomial(200).family
        calls = count_evaluations(monkeypatch)
        _sweep(family, range(201), 0.05, DEFAULT_DELTA)
        assert len(calls) <= 750


class TestCsv:
    def test_roundtrip(self, bin12):
        grid = theta_grid(bin12, 0.2, 0.8, 11)
        report = exact_coverage(bin12, "sterne", 0.1, grid)
        buf = io.StringIO()
        write_csv(report, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "eta,natural_param,coverage,expected_length"
        assert len(lines) == 1 + len(report.grid)
        for i, line in enumerate(lines[1:]):
            eta, nat, cov, length = line.split(",")
            assert float(eta) == report.grid[i]
            assert float(nat) == report.natural[i]
            assert float(cov) == report.coverage[i]
            assert float(length) == report.expected_length[i]

    def test_lengths_blank_when_absent(self, pois):
        report = exact_coverage(pois, "cp", 0.1, [0.0, 1.0])
        buf = io.StringIO()
        write_csv(report, buf)
        for line in buf.getvalue().strip().split("\n")[1:]:
            assert line.endswith(",")
