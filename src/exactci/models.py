"""Shipped model constructors: binomial, Poisson, and 2x2-table odds ratio.

Each constructor returns a :class:`Model`, a :class:`~exactci.family.LatticeFamily`
bundled with the monotone map from the canonical parameter theta to the
familiar natural scale (success probability, mean, odds ratio). The interval
routines accept either a Model or a bare family.

Every shipped weight is a ratio of factorials, read from one numpy kernel,
``_lf``. log k! for k < 2^16 comes from a table: the log of k!
rounded to a double for k <= 170, Stirling's series beyond. Larger k use that
series directly. With x = k + 1 it is

    log k! = (x - 1/2) log x - x + log(2 pi) / 2 + stirlerr(x),

with Loader's stirlerr(x) = 1/(12 x) - 1/(360 x^3) + 1/(1260 x^5) + O(x^-7),
whose first dropped term is below 1e-18. These are the operations of Cephes'
lgam for x >= 1000, which scipy's gammaln runs, so from there on the kernel
returns scipy's double wherever numpy's log returns the C library's. Against
mpmath at 40 digits the kernel is within 2.81 ulps of log k! for every
k < 1e5 and on a geometric sample up to 1e9, the bound scipy's gammaln(k + 1)
reaches on the same sample. Calls of one or two points, the window-edge
and probe reads that make up most calls, are computed in Python floats, which
round each operation as numpy does; every other call runs in chunks of 2^14
points, so temporaries stay cache-sized. Either way the double returned for
k does not depend on the other points in the call, as ``LatticeFamily``
requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadN, EmptySupport, OutOfSupport
from .family import LatticeFamily, LatticeSupport, _check_x, _is_int


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
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _log(v: float) -> float:
    if v < 0.0:
        raise ValueError(f"natural parameter {v} must be nonnegative")
    if v == 0.0:
        return -math.inf
    return math.log(v)


# log k! is tabulated for k below this; the table takes 512 KB
_TABLE_SIZE = 1 << 16
# calls of at most _POINTWISE points are computed one point at a time, and
# all others in chunks of _CHUNK points
_POINTWISE = 2
_CHUNK = 1 << 14
# log(2 pi) / 2 rounded once; 0.5 * math.log(2.0 * math.pi) is one ulp off
_HALF_LOG_2PI = 0.91893853320467274178


def _stirling(k):
    """log k! by Stirling's series in x = k + 1, for k > 170: a float, or a float array."""
    x = k + 1.0
    p = 1.0 / (x * x)
    stirlerr = ((1.0 / 1260.0 * p - 1.0 / 360.0) * p + 1.0 / 12.0) / x
    return (x - 0.5) * np.log(x) - x + _HALF_LOG_2PI + stirlerr


_LOG_FACTORIALS = np.concatenate([
    np.log([float(math.factorial(k)) for k in range(171)]),
    _stirling(np.arange(171, _TABLE_SIZE, dtype=float)),
])


def _lf(k):
    """log k! for a nonnegative integral float k, or elementwise over an array of them."""
    if isinstance(k, float):
        return _LOG_FACTORIALS.item(int(k)) if k < _TABLE_SIZE else float(_stirling(k))
    i = k.astype(np.intp)
    if i.max() < _TABLE_SIZE:
        return _LOG_FACTORIALS[i]
    out = _stirling(np.maximum(k, float(_TABLE_SIZE)))
    small = i < _TABLE_SIZE
    out[small] = _LOG_FACTORIALS[i[small]]
    return out


def _elementwise(f):
    """A log_weight applying ``f``, an expression in ``_lf``, to each point of its argument."""

    def log_weight(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        if flat.size <= _POINTWISE:
            out = np.array([f(v) for v in flat.tolist()])
        else:
            out = np.empty(flat.size)
            for i in range(0, flat.size, _CHUNK):
                out[i : i + _CHUNK] = f(flat[i : i + _CHUNK])
        return out.reshape(x.shape)

    return log_weight


def make_binomial(n: int) -> Model:
    """Binomial(n, p) with theta = logit(p); support {0, ..., n}."""
    if not _is_int(n) or n < 1:
        raise BadN(f"n must be a positive integer, got {n!r}")
    n = int(n)
    lfn = _lf(float(n))
    # x! (n - x)! is summed in an order symmetric in x and n - x, so w_x == w_{n-x}
    logw = _elementwise(lambda x: lfn - (_lf(x) + _lf(n - x)))
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
    logw = _elementwise(lambda x: -_lf(x))
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
        raise BadN(f"s must be an integer, got {s!r}")
    n1, n2, s = int(n1), int(n2), int(s)
    if s < 0 or s > n1 + n2:
        raise EmptySupport(f"total s = {s} is incompatible with n1 + n2 = {n1 + n2}")
    lo, hi = max(0, s - n2), min(n1, s)
    # summed in pairs, so the weights are symmetric bit for bit under x -> s - x when
    # n1 = n2, and under x -> n1 - x when n1 + n2 = 2 s
    logw = _elementwise(lambda x: -((_lf(x) + _lf(n1 - x)) + (_lf(s - x) + _lf(n2 - s + x))))
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
    x = _check_x(model.family, x)
    if model.kind == "binomial":
        return x / model.params["n"]
    if model.kind == "poisson":
        return float(x)
    if model.kind == "oddsratio":
        n1, n2, s = model.params["n1"], model.params["n2"], model.params["s"]
        return ((x + 0.5) * (n2 - s + x + 0.5)) / ((n1 - x + 0.5) * (s - x + 0.5))
    raise ValueError(f"unknown model kind {model.kind!r}")
