"""End-to-end acceptance checks.

One test per user-visible guarantee: reference interval tables, worked
examples, oracle equivalence, coverage floors, the structural properties of
the p-value curve, and the timing budgets. Each test prints a PASS line with
the measured worst case, so ``pytest -s tests/test_acceptance.py`` doubles as
a short report.
"""

import io
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from exactci.bounds import (clopper_pearson, lower_bound, pvalue_left, pvalue_right,
                            upper_bound)
from exactci.cli import run
from exactci.coverage import exact_coverage
from exactci.family import special_param
from exactci.models import make_binomial, make_odds_ratio, make_poisson, point_estimate
from exactci.sterne import jump_limits, stage_one, sterne_interval, sterne_pvalue, sterne_upper
from oracles import sterne_pvalue_oracle, truncated_geometric_variance


def report(line):
    print(f"PASS {line}")


# Reference 95% lambda-intervals for x = 0..15, printed to 4 decimals.
# Row: sterne lo, hi, length, then the same three for Clopper-Pearson.
POISSON_TABLE = {
    0: (0.0000, 3.7644, 3.7644, 0.0000, 3.6889, 3.6889),
    1: (0.0512, 5.7560, 5.7048, 0.0253, 5.5717, 5.5464),
    2: (0.3553, 7.2950, 6.9397, 0.2422, 7.2247, 6.9825),
    3: (0.8176, 8.8077, 7.9901, 0.6186, 8.7673, 8.1487),
    4: (1.3663, 10.3073, 8.9410, 1.0898, 10.2416, 9.1518),
    5: (1.9701, 11.7992, 9.8291, 1.6234, 11.6684, 10.0450),
    6: (2.6130, 13.2862, 10.6732, 2.2018, 13.0595, 10.8577),
    7: (3.2853, 14.3403, 11.0550, 2.8143, 14.4227, 11.6084),
    8: (3.7643, 15.8198, 12.0555, 3.4538, 15.7632, 12.3094),
    9: (4.4601, 17.2979, 12.8378, 4.1153, 17.0849, 12.9696),
    10: (5.3233, 18.3386, 13.0153, 4.7953, 18.3904, 13.5951),
    11: (5.7559, 19.8138, 14.0579, 5.4911, 19.6821, 14.1910),
    12: (6.6857, 20.8485, 14.1628, 6.2005, 20.9616, 14.7611),
    13: (7.2949, 22.3219, 15.0270, 6.9219, 22.2304, 15.3085),
    14: (8.1020, 23.7952, 15.6932, 7.6539, 23.4897, 15.8358),
    15: (8.8076, 24.8249, 16.0173, 8.3953, 24.7403, 16.3450),
}


def test_poisson_reference_table(pois):
    start = time.perf_counter()
    worst = 0.0
    for x, row in POISSON_TABLE.items():
        st = sterne_interval(pois, x, 0.05)
        cp = clopper_pearson(pois, x, 0.05)
        got = (st.natural_lo, st.natural_hi, st.natural_hi - st.natural_lo,
               cp.natural_lo, cp.natural_hi, cp.natural_hi - cp.natural_lo)
        for g, want in zip(got, row):
            worst = max(worst, abs(g - want))
            assert g == pytest.approx(want, abs=5e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"poisson reference table x=0..15: max |err| {worst:.2e}, {elapsed:.2f}s")


def test_binomial_reference_endpoints(bin20):
    ci = sterne_interval(bin20, 5, 0.05)
    assert ci.natural_lo == pytest.approx(0.104, abs=5e-4)
    assert ci.natural_hi == pytest.approx(0.475, abs=5e-4)
    report(f"binomial n=20 x=5 endpoints ({ci.natural_lo:.4f}, {ci.natural_hi:.4f})")


def test_odds_ratio_reference_intervals(or_big):
    st = sterne_interval(or_big, 42, 0.05)
    cp = clopper_pearson(or_big, 42, 0.05)
    est = point_estimate(or_big, 42)
    assert st.natural_lo == pytest.approx(1.4427, abs=1e-3)
    assert st.natural_hi == pytest.approx(8.0213, abs=1e-3)
    assert cp.natural_lo == pytest.approx(1.4332, abs=1e-3)
    assert cp.natural_hi == pytest.approx(9.1586, abs=1e-3)
    assert est == pytest.approx(3.1884, abs=1e-4)
    report(f"odds-ratio x=42: sterne ({st.natural_lo:.4f}, {st.natural_hi:.4f}), "
           f"cp ({cp.natural_lo:.4f}, {cp.natural_hi:.4f}), estimate {est:.4f}")


def test_pvalue_matches_direct_summation(bin12, or_small, pois):
    start = time.perf_counter()
    worst_bounded = 0.0
    for x in range(13):
        for eta in np.linspace(-8.0, 8.0, 400) + 0.0123456:
            d = abs(sterne_pvalue(bin12, x, eta).value
                    - sterne_pvalue_oracle(bin12, x, eta))
            worst_bounded = max(worst_bounded, d)
    fam = or_small.family
    for x in fam.support.points():
        for eta in np.linspace(-7.0, 7.0, 200) + 0.0123456:
            d = abs(sterne_pvalue(fam, x, eta).value
                    - sterne_pvalue_oracle(fam, x, eta))
            worst_bounded = max(worst_bounded, d)
    assert worst_bounded <= 1e-12
    worst_pois = 0.0
    for x in range(11):
        for eta in np.linspace(math.log(0.05), math.log(30.0), 200) + 1e-4:
            d = abs(sterne_pvalue(pois, x, eta).value
                    - sterne_pvalue_oracle(pois, x, eta))
            worst_pois = max(worst_pois, d)
    assert worst_pois <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"p-value vs direct summation: bounded {worst_bounded:.1e}, "
           f"poisson {worst_pois:.1e}, {elapsed:.1f}s")


def test_minimum_coverage_at_nominal_level(or_big):
    cases = []
    for n in (5, 10, 20, 50):
        model = make_binomial(n)
        grid = [model.from_natural(p) for p in np.linspace(0.005, 0.995, 501)]
        cases.append((f"binomial n={n}", model, grid))
    cases.append(("odds-ratio 49/317", or_big, list(np.linspace(-4.0, 4.0, 501))))
    worst = 1.0
    for name, model, grid in cases:
        for method in ("sterne", "clopper_pearson"):
            rep = exact_coverage(model, method, 0.05, grid)
            assert rep.min_coverage >= 0.95 - 1e-9, (name, method)
            worst = min(worst, rep.min_coverage)
    report(f"coverage floor 0.95 over {len(cases)} models x 2 methods: min {worst:.6f}")


def test_jump_monotonicity_and_piece_concavity(bin20, or_big):
    checked_jumps = checked_pieces = 0
    for model in (bin20, or_big):
        fam = model.family
        lo, hi = fam.support.lo, fam.support.hi
        for x in fam.support.points():
            above = [sterne_pvalue(fam, x, special_param(fam, x, k)).value
                     for k in range(x + 2, hi + 1)]
            below = [sterne_pvalue(fam, x, special_param(fam, x, k)).value
                     for k in range(lo, x - 1)]
            assert all(a > b for a, b in zip(above, above[1:]))
            assert all(a < b for a, b in zip(below, below[1:]))
            for k in range(x + 1, hi + 1):
                _, left, right = jump_limits(fam, x, k)
                assert left > right
            for k in range(lo, x):
                _, left, right = jump_limits(fam, x, k)
                assert right > left
            checked_jumps += (hi - x) + (x - lo)
            # strict midpoint concavity of log(1 - pi) on each piece between
            # consecutive jumps, checked at the quarter points
            pieces = [(special_param(fam, x, k - 1), special_param(fam, x, k))
                      for k in range(x + 2, hi + 1)]
            pieces += [(special_param(fam, x, k), special_param(fam, x, k + 1))
                       for k in range(lo, x - 1)]
            for a, b in pieces:
                q1, q2, q3 = (a + q * (b - a) for q in (0.25, 0.5, 0.75))
                psi = [math.log1p(-sterne_pvalue(fam, x, t).value)
                       for t in (q1, q2, q3)]
                assert 2.0 * psi[1] > psi[0] + psi[2]
                checked_pieces += 1
    report(f"jump direction/monotonicity ({checked_jumps} jumps) and "
           f"piece concavity ({checked_pieces} pieces)")


def test_poisson_upper_endpoint_lands_on_a_jump(pois):
    fam = pois.family
    for alpha in (0.1, 0.05, 0.01):
        for x in range(16):
            k = stage_one(fam, x, alpha)[0]
            bound = sterne_upper(pois, x, alpha)
            # right limit <= alpha is the condition under which the second
            # stage is skipped and the jump point itself is returned
            assert jump_limits(pois, x, k)[2] <= alpha
            assert bound == special_param(fam, x, k)
            assert sterne_interval(pois, x, alpha).natural_hi == math.exp(bound)
    report("poisson upper endpoint is the stage-one jump, bit for bit, "
           "x=0..15, alpha in {0.1, 0.05, 0.01}")


def brute_variance(delta, m):
    w = np.exp(delta * np.arange(m + 1))
    w = w / w.sum()
    mean = float((np.arange(m + 1) * w).sum())
    return float((((np.arange(m + 1) - mean) ** 2) * w).sum())


def exact_variance(q, m):
    ws = [q ** j for j in range(m + 1)]
    tot = sum(ws)
    mean = sum(j * w for j, w in zip(range(m + 1), ws)) / tot
    return sum((j - mean) ** 2 * w for j, w in zip(range(m + 1), ws)) / tot


def test_variance_identity_and_growth():
    worst = 0.0
    for delta in (-2.0, -0.5, 0.0, 0.5, 2.0):
        values = [truncated_geometric_variance(delta, m) for m in range(31)]
        for m, v in enumerate(values):
            worst = max(worst, abs(v - brute_variance(delta, m)))
        assert worst <= 1e-12
        # strict growth in m is checked in exact rational arithmetic: for
        # |delta| = 2 the closed form saturates double precision near m = 22
        # and consecutive floats tie even though the true values do not
        q = Fraction(1) if delta == 0.0 else Fraction(math.exp(delta))
        exact = [exact_variance(q, m) for m in range(31)]
        assert all(a < b for a, b in zip(exact, exact[1:]))
        assert all(a <= b for a, b in zip(values, values[1:]))
    report(f"truncated-geometric variance: closed form vs brute force "
           f"{worst:.1e}, strictly increasing in m (exact arithmetic)")


def test_one_sided_duality(rng):
    worst = 0.0
    checked = 0
    for _ in range(200):
        kind = rng.choice(("binomial", "poisson", "oddsratio"))
        if kind == "binomial":
            n = int(rng.integers(2, 81))
            model = make_binomial(n)
        elif kind == "poisson":
            model = make_poisson()
        else:
            n1 = int(rng.integers(2, 41))
            n2 = int(rng.integers(2, 41))
            s = int(rng.integers(1, n1 + n2))
            model = make_odds_ratio(n1, n2, s)
        lo = model.family.support.lo
        hi = model.family.support.hi
        top = 40 if math.isinf(hi) else hi
        x = int(rng.integers(lo, top + 1))
        alpha = float(rng.uniform(0.005, 0.25))
        if x < hi:
            worst = max(worst, abs(pvalue_left(model, x, upper_bound(model, x, alpha))
                                   - alpha))
            checked += 1
        if x > lo:
            worst = max(worst, abs(pvalue_right(model, x, lower_bound(model, x, alpha))
                                   - alpha))
            checked += 1
    assert worst <= 1e-8
    report(f"one-sided duality over 200 random cases ({checked} bound checks): "
           f"max |pvalue - alpha| {worst:.1e}")


def _crossings(out, alpha):
    """Natural-scale brackets around the points where the sampled curve
    crosses alpha, from the CLI curve CSV."""
    samples = []
    for line in out.splitlines()[1:]:
        nat, p, side = line.split(",")
        if side == "sample":
            samples.append((float(nat), float(p)))
    covered = [nat for nat, p in samples if p > alpha]
    below_lo = max((nat for nat, p in samples if p <= alpha and nat < covered[0]),
                   default=samples[0][0])
    above_hi = min((nat for nat, p in samples if p <= alpha and nat > covered[-1]),
                   default=samples[-1][0])
    return (below_lo, covered[0]), (covered[-1], above_hi)


def test_curve_crossings_match_reference_intervals():
    buf = io.StringIO()
    code = run(["binomial", "--n", "20", "--x", "5", "--curve",
                "--from", "0.01", "--to", "0.7", "--points", "500"], out=buf)
    assert code == 0
    (lo_a, lo_b), (hi_a, hi_b) = _crossings(buf.getvalue(), 0.05)
    assert lo_a - 5e-4 <= 0.104 <= lo_b + 5e-4
    assert hi_a - 5e-4 <= 0.475 <= hi_b + 5e-4
    buf = io.StringIO()
    code = run(["curve", "--model", "oddsratio", "--y1", "42", "--n1", "49",
                "--y2", "203", "--n2", "317", "--from", "0.5", "--to", "12",
                "--points", "500"], out=buf)
    assert code == 0
    (lo_a, lo_b), (hi_a, hi_b) = _crossings(buf.getvalue(), 0.05)
    assert lo_a - 1e-3 <= 1.4427 <= lo_b + 1e-3
    assert hi_a - 1e-3 <= 8.0213 <= hi_b + 1e-3
    report("curve level-0.05 crossings bracket the reference interval "
           "endpoints for binomial n=20 x=5 and the odds-ratio table")
