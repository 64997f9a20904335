import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from exactci import (
    BadN,
    EmptySupport,
    InadmissibleInfiniteTheta,
    OutOfSupport,
    TwoByTwoTable,
    make_binomial,
    make_odds_ratio,
    make_poisson,
    point_estimate,
    sterne_interval,
)
from exactci.family import plateau, special_param
from exactci.models import _CHUNK, _POINTWISE, _TABLE_SIZE, _elementwise, _lf

# log k! read through the same call paths as the shipped weights
log_factorial = _elementwise(_lf)


class TestMakeBinomial:
    def test_weights_are_binomial_coefficients(self, bin20):
        w5 = math.exp(float(bin20.family.log_weight(np.asarray([5.0]))[0]))
        assert w5 == pytest.approx(15504.0, rel=1e-12)  # C(20, 5)

    def test_metadata(self, bin20):
        assert bin20.kind == "binomial"
        assert bin20.params == {"n": 20}
        assert bin20.natural_label == "p"

    def test_smallest_n(self):
        m = make_binomial(1)
        assert m.family.support.lo == 0 and m.family.support.hi == 1

    @pytest.mark.parametrize("n", [0, -3, 2.5, True])
    def test_bad_n(self, n):
        with pytest.raises(BadN):
            make_binomial(n)

    def test_pmf_matches_closed_form(self, bin12):
        for p in (0.1, 0.37, 0.5, 0.82):
            d = bin12.family.distribution(bin12.from_natural(p))
            for x in range(13):
                want = math.comb(12, x) * p**x * (1 - p) ** (12 - x)
                assert d.pmf(x) == pytest.approx(want, abs=1e-12)

    def test_transforms(self, bin20):
        assert bin20.to_natural(0.0) == pytest.approx(0.5, abs=1e-15)
        assert bin20.to_natural(math.inf) == 1.0
        assert bin20.to_natural(-math.inf) == 0.0
        assert bin20.from_natural(0.0) == -math.inf
        assert bin20.from_natural(1.0) == math.inf
        for theta in (-3.7, -0.2, 0.0, 1.9):
            assert bin20.from_natural(bin20.to_natural(theta)) == pytest.approx(
                theta, abs=1e-12
            )
        with pytest.raises(ValueError):
            bin20.from_natural(1.5)


class TestMakePoisson:
    def test_metadata(self, pois):
        assert pois.kind == "poisson"
        assert pois.params == {}
        assert pois.natural_label == "lambda"
        assert not pois.family.support.bounded_above

    def test_mean_equals_rate(self, pois):
        d = pois.family.distribution(math.log(4.0))
        mean = float(np.dot(d.xs, d.pmf_values))
        assert mean == pytest.approx(4.0, abs=1e-10)

    def test_point_mass_at_zero(self, pois):
        d = pois.family.distribution(-math.inf)
        assert d.pmf(0) == 1.0

    def test_infinite_rate_inadmissible(self, pois):
        with pytest.raises(InadmissibleInfiniteTheta):
            pois.family.distribution(math.inf)

    def test_transforms(self, pois):
        assert pois.to_natural(math.log(4.0)) == pytest.approx(4.0, rel=1e-15)
        assert pois.to_natural(-math.inf) == 0.0
        assert pois.to_natural(math.inf) == math.inf
        # finite up to where math.exp overflows, near 709.78
        assert pois.to_natural(705.0) == math.exp(705.0)
        assert pois.to_natural(710.0) == math.inf
        assert pois.from_natural(0.0) == -math.inf
        with pytest.raises(ValueError):
            pois.from_natural(-1.0)

    def test_window_reaches_far_tail(self, pois):
        # the window promise: far enough out that neglected mass is immaterial
        d = pois.family.distribution(math.log(100.0))
        assert d.xs[-1] >= 100 + 40 * 10


class TestMakeOddsRatio:
    def test_tiny_table_weights(self):
        m = make_odds_ratio(2, 2, 2)
        w = np.exp(m.family.log_weight(np.asarray([0.0, 1.0, 2.0])))
        np.testing.assert_allclose(w / w[0], [1.0, 4.0, 1.0], rtol=1e-12)

    def test_metadata(self, or_big):
        assert or_big.kind == "oddsratio"
        assert or_big.params == {"n1": 49, "n2": 317, "s": 245}
        assert or_big.natural_label == "rho"
        assert or_big.family.support.lo == 0 and or_big.family.support.hi == 49

    def test_support_clipping(self):
        m = make_odds_ratio(4, 3, 6)
        assert m.family.support.lo == 3 and m.family.support.hi == 4

    @pytest.mark.parametrize("s", [0, -1, 8, 7])
    def test_degenerate_totals(self, s):
        # s = 0 and s = n1 + n2 leave a single support point; worse is empty
        with pytest.raises(EmptySupport):
            make_odds_ratio(3, 4, s)

    @pytest.mark.parametrize("n1,n2", [(0, 4), (4, 0), (-1, 4), (2.5, 4)])
    def test_bad_group_sizes(self, n1, n2):
        with pytest.raises(BadN):
            make_odds_ratio(n1, n2, 2)

    def test_non_integer_total(self):
        with pytest.raises(BadN):
            make_odds_ratio(49, 317, 2.5)

    def test_null_is_hypergeometric_small(self, or_small):
        d = or_small.family.distribution(0.0)
        for x in range(7):
            want = math.comb(6, x) * math.comb(6, 6 - x) / math.comb(12, 6)
            assert d.pmf(x) == pytest.approx(want, abs=1e-12)

    def test_null_is_hypergeometric_big(self, or_big):
        d = or_big.family.distribution(0.0)
        denom = Fraction(math.comb(366, 245))
        for x in range(50):
            want = Fraction(math.comb(49, x) * math.comb(317, 245 - x)) / denom
            assert d.pmf(x) == pytest.approx(float(want), rel=1e-11)

    def test_plateau_closed_form(self, or_big):
        n1, n2, s = 49, 317, 245
        for x in range(1, 50):
            left, _ = plateau(or_big.family, x)
            want = math.log(x * (n2 - s + x) / ((n1 - x + 1) * (s - x + 1)))
            assert left == pytest.approx(want, abs=1e-10)


class TestTwoByTwoTable:
    def test_accessors(self):
        t = TwoByTwoTable(y1=42, n1=49, y2=203, n2=317)
        assert t.s == 245
        assert t.x == 42

    def test_count_above_group_size(self):
        with pytest.raises(OutOfSupport):
            TwoByTwoTable(y1=5, n1=4, y2=0, n2=3)

    def test_negative_count(self):
        with pytest.raises(OutOfSupport):
            TwoByTwoTable(y1=-1, n1=4, y2=0, n2=3)

    def test_bad_group_size(self):
        with pytest.raises(BadN):
            TwoByTwoTable(y1=0, n1=0, y2=0, n2=3)


class TestPointEstimate:
    def test_binomial_fraction(self, bin20):
        assert point_estimate(bin20, 10) == 0.5
        assert point_estimate(bin20, 0) == 0.0

    def test_poisson_identity(self, pois):
        assert point_estimate(pois, 0) == 0.0
        assert point_estimate(pois, 7) == 7.0

    def test_odds_ratio_half_corrected(self, or_big):
        # (42.5 * 114.5) / (7.5 * 203.5)
        assert point_estimate(or_big, 42) == pytest.approx(3.1884, abs=1e-4)

    def test_out_of_support(self, bin20):
        with pytest.raises(OutOfSupport):
            point_estimate(bin20, 21)

    def test_binomial_estimate_in_plateau(self, bin20):
        for x in range(1, 20):
            lo, hi = plateau(bin20.family, x)
            theta = bin20.from_natural(x / 20)
            assert lo <= theta <= hi

    def test_odds_ratio_estimate_in_plateau(self, or_big):
        for x in range(50):
            lo, hi = plateau(or_big.family, x)
            theta = math.log(point_estimate(or_big, x))
            assert lo < theta < hi

    def test_poisson_estimate_in_plateau(self, pois):
        # log(x) IS the left plateau edge, so containment is up to rounding
        for x in range(1, 30):
            lo, hi = plateau(pois.family, x)
            assert lo == pytest.approx(math.log(x), abs=1e-10)
            est = math.log(float(point_estimate(pois, x)))
            assert lo - 1e-12 <= est <= hi + 1e-12


class TestLogFactorial:
    """The numpy log k! kernel every shipped weight is built on."""

    # both sides of the end of the exact entries, of the table and of each chunk
    EDGES = (170, 171, _TABLE_SIZE - 1, _TABLE_SIZE) + tuple(
        j * _CHUNK + d for j in range(1, 7) for d in (-1, 0))

    @pytest.fixture(scope="class")
    def sample(self):
        # every k < 1e5, read in one call, then a geometric sample up to 1e9
        geo = np.unique(np.round(np.geomspace(1e5, 1e9, 400)))
        with mpmath.workdps(40):
            exact, total = [mpmath.mpf(0)], mpmath.mpf(0)
            for k in range(1, 100_000):
                total += mpmath.log(k)
                exact.append(total)
            exact += [mpmath.loggamma(k + 1) for k in geo.tolist()]
        return np.concatenate([np.arange(100_000.0), geo]), exact

    def test_within_three_ulps_of_mpmath(self, sample):
        ks, exact = sample
        assert set(self.EDGES) <= set(ks.tolist())
        got = log_factorial(ks)
        assert got[0] == got[1] == 0.0
        ulps = [abs(mpmath.mpf(g) - e) / math.ulp(float(e))
                for g, e in zip(got[2:].tolist(), exact[2:])]
        # measured 2.81 ulps at k = 4211, where scipy's gammaln(k + 1) returns
        # the same double; 2.81 is also scipy's bound on this sample
        assert max(ulps) < 3.0

    @pytest.mark.parametrize("make, xs", [
        (lambda: make_binomial(100_000), np.arange(100_001.0)),
        (make_poisson, np.concatenate([np.arange(100_000.0),
                                       np.round(np.geomspace(1e5, 1e9, 200))])),
        # n1 - x, s - x and n2 - s + x cross the table edge too
        (lambda: make_odds_ratio(70_000, 70_000, 70_000), np.arange(70_001.0)),
    ])
    def test_one_call_equals_its_pieces(self, make, xs):
        # the double for x may not depend on the other points in the call:
        # one call over xs equals calls of 1, _POINTWISE, _POINTWISE + 1 and 17
        # points, bit for bit, around every edge and on a stride through xs
        log_weight = make().family.log_weight
        whole = log_weight(xs)
        near = {e + d for e in self.EDGES for d in range(-20, 4)}
        starts = sorted(i for i in near | set(range(0, len(xs), 97)) if 0 <= i < len(xs))
        for size in (1, _POINTWISE, _POINTWISE + 1, 17):
            for i in starts:
                piece = log_weight(xs[i : i + size])
                assert piece.tobytes() == whole[i : i + size].tobytes(), (size, xs[i])

    def test_point_reads_past_the_table(self):
        # a point read computes the series in Python floats around one np.log of a
        # float: every k from the table edge to 1e6 reads the double of the chunked call
        ks = np.arange(float(_TABLE_SIZE), 1e6)
        points = np.array([_lf(k) for k in ks.tolist()])
        assert points.tobytes() == log_factorial(ks).tobytes()

    def test_scalar_and_shaped_calls(self):
        assert log_factorial(5.0).shape == ()
        assert log_factorial(np.asarray(5.0)) == np.log(120.0)
        grid = np.arange(40.0).reshape(5, 8)
        assert log_factorial(grid).tobytes() == log_factorial(grid.ravel()).tobytes()


class TestSymmetricWeights:
    """Weights summed in a symmetric order meet at theta exactly 0."""

    @pytest.mark.parametrize("n", [20, 21, 100, 1000, 10_000])
    def test_binomial(self, n):
        fam = make_binomial(n).family
        w = fam._log_weights(0, n)
        assert w.tobytes() == w[::-1].tobytes()
        assert all(special_param(fam, x, n - x) == 0.0 for x in range(n + 1) if 2 * x != n)

    def test_odds_ratio(self, or_small):
        assert all(special_param(or_small.family, x, 6 - x) == 0.0 for x in range(7) if x != 3)

    def test_interval_end_at_the_symmetric_jump(self):
        # the exact lower end of x = 16 is theta_{4,16} = 0, p = 1/2
        ci = sterne_interval(make_binomial(20), 16, 0.01)
        assert ci.theta_lo == 0.0 and ci.natural_lo == 0.5
