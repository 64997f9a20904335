import io
import math

import numpy as np
import pytest

from exactci import (
    UnboundedEnumeration,
    exact_coverage,
    length_table,
    lower_bound,
    make_binomial,
    make_odds_ratio,
    make_poisson,
    upper_bound,
    write_csv,
)
from exactci.coverage import interval_bounds
from exactci.family import reflect

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

    def test_empty_grid_rejected(self, bin20):
        with pytest.raises(ValueError):
            exact_coverage(bin20, "sterne", 0.05, [])

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


SWEEPS = [(make_binomial(20), 8.0), (make_binomial(200), 8.0),
          (make_odds_ratio(49, 317, 245), 4.0), (make_poisson(), 3.0)]


class TestSterneSweep:
    """Whole-support sweeps warm-start stage one, with per-x results unchanged."""

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
