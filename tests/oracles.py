"""Reference helpers the tests compare the package against.

``sterne_pvalue_oracle`` sums the defining formula of pi(x, eta) directly,
``ladder`` materializes the special parameters of one outcome,
``truncated_geometric_variance`` is the closed-form variance of a truncated
geometric distribution, ``k_star_reference`` is stage one's search by
doubling and bisection, ``curve_jumps_reference`` lists a curve's jumps by
a walk out from x, and ``count_evaluations`` counts the calls of
``LatticeFamily.distribution``. None of them is part of the package's API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from exactci.bounds import _check_x, _unpack
from exactci.errors import OutOfSupport, UnboundedEnumeration
from exactci.family import LatticeFamily, _is_int, _search, special_param
from exactci.sterne import _clip, _two_tails


def sterne_pvalue_oracle(fam_or_model, x: int, eta: float) -> float:
    """Direct summation of the defining formula over the summation window.

    Kept deliberately naive as a cross-check for :func:`sterne_pvalue`.
    """
    family, _ = _unpack(fam_or_model)
    x = _check_x(family, x)
    d = family.distribution(float(eta))
    lp = d.logpmf_values
    ix = x - int(d.xs[0])
    if not 0 <= ix < len(d.xs):
        raise OutOfSupport(f"x = {x} fell outside the summation window")
    mask = lp <= lp[ix]
    return _clip(float(d.pmf_values[mask].sum()))


@dataclass(frozen=True)
class SpecialParamLadder:
    """theta_{k,x} for a fixed x, keyed by k; strictly increasing in k."""

    x: int
    entries: dict[int, float]

    def ks(self) -> list[int]:
        return sorted(self.entries)


def ladder(
    family: LatticeFamily,
    x: int,
    k_min: int | None = None,
    k_max: int | None = None,
) -> SpecialParamLadder:
    """Materialize the special parameters for one x, sentinels included.

    Unbounded sides need an explicit k_min / k_max.
    """
    lo, hi = family.support.lo, family.support.hi
    if k_min is None:
        if not family.support.bounded_below:
            raise UnboundedEnumeration("k_min required for a support unbounded below")
        k_min = int(lo) - 1
    if k_max is None:
        if not family.support.bounded_above:
            raise UnboundedEnumeration("k_max required for a support unbounded above")
        k_max = int(hi) + 1
    entries = {}
    for k in range(int(k_min), int(k_max) + 1):
        if k == x:
            continue
        entries[k] = special_param(family, x, k)
    return SpecialParamLadder(x=int(x), entries=entries)


def truncated_geometric_variance(delta: float, m: int) -> float:
    """Variance of a geometric-weight distribution on {0, ..., m}.

    Weights are proportional to exp(delta * x). For delta = 0 this is the
    uniform variance m (m + 2) / 12; otherwise

        B^2 - B - (m + 1)^2 / (2 cosh((m + 1) delta) - 2),   B = e^d / (e^d - 1),

    written below in a cancellation-safe form. Strictly increasing in m.
    """
    if not _is_int(m) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    if delta == 0.0:
        return m * (m + 2) / 12.0
    b1 = 1.0 / math.expm1(delta)  # B - 1
    half = 2.0 * math.sinh((m + 1) * delta / 2.0)  # sqrt(2 cosh((m+1)d) - 2), signed
    return (1.0 + b1) * b1 - ((m + 1) / half) ** 2


def k_star_reference(family: LatticeFamily, x: int, alpha: float) -> int:
    """``stage_one``'s k by the monotone predicate "jump value below alpha" alone.

    On a bounded support the first probe is max(X), with hi + 1 as the
    sentinel, and a bisection follows; on an unbounded one the probes sit at
    x + 2, x + 4, x + 8, ... A probe whose window is too large counts as past
    the crossing, and its error is raised if it ends the search.
    """
    hi = family.support.hi
    too_wide = {}

    def below(k: int) -> bool:
        if k > hi:
            return True
        if k <= x + 1:
            return False
        try:
            d = family.distribution(special_param(family, x, k))
        except UnboundedEnumeration as err:
            too_wide[k] = err
            return True
        return _two_tails(d, k, x) < alpha

    if family.support.bounded_above:
        k = _search(below, x + 1, +1, hi + 1, max(1, hi - x - 1))
    else:
        k = _search(below, x, +1, hi, 2)
    if k in too_wide:
        raise too_wide[k]
    return k - 1


def curve_jumps_reference(model, x: int, t_from: float, t_to: float) -> list[int]:
    """All k whose special parameter theta_{k,x} lies inside [t_from, t_to],
    by walking out from x one k at a time on each side."""
    fam = model.family
    below, above = [], []
    k = x - 1
    while k >= fam.support.lo and (t := special_param(fam, x, k)) >= t_from:
        if t <= t_to:
            below.append(k)
        k -= 1
    k = x + 1
    while k <= fam.support.hi and (t := special_param(fam, x, k)) <= t_to:
        if t >= t_from:
            above.append(k)
        k += 1
    return below[::-1] + above


def count_evaluations(monkeypatch) -> list:
    """A list that grows by one theta for each LatticeFamily.distribution call."""
    calls = []
    evaluate = LatticeFamily.distribution

    def counted(self, theta):
        calls.append(theta)
        return evaluate(self, theta)

    monkeypatch.setattr(LatticeFamily, "distribution", counted)
    return calls
