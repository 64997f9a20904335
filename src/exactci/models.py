"""Shipped model constructors: binomial, Poisson, and 2x2-table odds ratio.

Each constructor returns a :class:`Model`, a :class:`~exactci.family.LatticeFamily`
bundled with the monotone map from the canonical parameter theta to the
familiar natural scale (success probability, mean, odds ratio). The interval
routines accept either a Model or a bare family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .errors import BadN, EmptySupport, OutOfSupport
from .family import LatticeFamily, LatticeSupport, _is_int


@dataclass(frozen=True)
class Model:
    """A lattice family together with its natural parameter scale."""

    kind: str
    family: LatticeFamily
    params: dict
    to_natural: Callable[[float], float]
    from_natural: Callable[[float], float]
    natural_label: str


def _expit(t: float) -> float:
    if t == math.inf:
        return 1.0
    if t == -math.inf:
        return 0.0
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _logit(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return math.log(p) - math.log1p(-p)


def _exp(t: float) -> float:
    if t > 700.0:
        return math.inf
    return math.exp(t)


def _log(v: float) -> float:
    if v < 0.0:
        raise ValueError(f"natural parameter {v} must be nonnegative")
    if v == 0.0:
        return -math.inf
    return math.log(v)


def make_binomial(n: int) -> Model:
    """Binomial(n, p) with theta = logit(p); support {0, ..., n}."""
    if not _is_int(n) or n < 1:
        raise BadN(f"n must be a positive integer, got {n!r}")
    n = int(n)

    def logw(x):
        x = np.asarray(x, dtype=float)
        return gammaln(n + 1) - gammaln(x + 1) - gammaln(n - x + 1)

    fam = LatticeFamily(support=LatticeSupport(0, n), log_weight=logw)
    return Model(
        kind="binomial",
        family=fam,
        params={"n": n},
        to_natural=_expit,
        from_natural=_logit,
        natural_label="p",
    )


def make_poisson() -> Model:
    """Poisson(lambda) with theta = log(lambda); support {0, 1, ...}.

    theta = +inf is inadmissible.
    """

    def logw(x):
        x = np.asarray(x, dtype=float)
        return -gammaln(x + 1)

    fam = LatticeFamily(support=LatticeSupport(0, math.inf), log_weight=logw)
    return Model(
        kind="poisson",
        family=fam,
        params={},
        to_natural=_exp,
        from_natural=_log,
        natural_label="lambda",
    )


def make_odds_ratio(n1: int, n2: int, s: int) -> Model:
    """Conditional odds-ratio family for a 2x2 table.

    The law of Y1 given Y1 + Y2 = s, where Y1 ~ Binomial(n1, p1) and
    Y2 ~ Binomial(n2, p2) are independent; theta = log of the odds ratio
    rho = (p1 / (1 - p1)) / (p2 / (1 - p2)). Support is
    {max(0, s - n2), ..., min(n1, s)} with weights
    1 / (x! (n1 - x)! (s - x)! (n2 - s + x)!).
    """
    if not _is_int(n1) or n1 < 1 or not _is_int(n2) or n2 < 1:
        raise BadN(f"group sizes must be positive integers, got n1={n1!r}, n2={n2!r}")
    if not _is_int(s):
        raise ValueError(f"s must be an integer, got {s!r}")
    n1, n2, s = int(n1), int(n2), int(s)
    if s < 0 or s > n1 + n2:
        raise EmptySupport(f"total s = {s} is incompatible with n1 + n2 = {n1 + n2}")
    lo, hi = max(0, s - n2), min(n1, s)

    def logw(x):
        x = np.asarray(x, dtype=float)
        return -(
            gammaln(x + 1)
            + gammaln(n1 - x + 1)
            + gammaln(s - x + 1)
            + gammaln(n2 - s + x + 1)
        )

    fam = LatticeFamily(support=LatticeSupport(lo, hi), log_weight=logw)
    return Model(
        kind="oddsratio",
        family=fam,
        params={"n1": n1, "n2": n2, "s": s},
        to_natural=_exp,
        from_natural=_log,
        natural_label="rho",
    )


@dataclass(frozen=True)
class TwoByTwoTable:
    """Counts y1 of n1 and y2 of n2; conditioning total s = y1 + y2."""

    y1: int
    n1: int
    y2: int
    n2: int

    def __post_init__(self):
        for name, y, n in (("y1", self.y1, self.n1), ("y2", self.y2, self.n2)):
            if not _is_int(n) or n < 1:
                raise BadN(f"n for {name} must be a positive integer")
            if not _is_int(y) or not 0 <= y <= n:
                raise OutOfSupport(f"{name} = {y} outside 0..{n}")

    @property
    def s(self) -> int:
        return int(self.y1) + int(self.y2)

    @property
    def x(self) -> int:
        return int(self.y1)


def point_estimate(model: Model, x: int) -> float:
    """Natural-scale point estimate of the model parameter at outcome x.

    Binomial: x / n. Poisson: x. Odds ratio: the half-corrected cross ratio

        ((x + 1/2) (n2 - s + x + 1/2)) / ((n1 - x + 1/2) (s - x + 1/2)),

    whose log always falls inside the p-value plateau of x.
    """
    if x not in model.family.support:
        raise OutOfSupport(f"x = {x} is not in the support")
    x = int(x)
    if model.kind == "binomial":
        return x / model.params["n"]
    if model.kind == "poisson":
        return float(x)
    if model.kind == "oddsratio":
        n1, n2, s = model.params["n1"], model.params["n2"], model.params["s"]
        return ((x + 0.5) * (n2 - s + x + 0.5)) / ((n1 - x + 0.5) * (s - x + 0.5))
    raise ValueError(f"unknown model kind {model.kind!r}")
