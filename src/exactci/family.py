"""Discrete log-concave exponential families on integer lattices.

A family is a set of positive probability weights w_x on an interval of
integers, tilted exponentially by a canonical parameter theta:

    f_theta(x) = w_x exp(theta x) / sum_y w_y exp(theta y).

The weights must be strictly log-concave (w_{x+1} / w_x strictly decreasing),
which is what gives the two-sided p-value in :mod:`exactci.sterne` its
piecewise structure. Extended parameters are plain IEEE floats: theta = -inf
means the point mass at a finite lower support endpoint, theta = +inf the
point mass at a finite upper endpoint; an infinite theta on an unbounded side
is inadmissible.

All evaluation happens in log space with one max-shifted sum per theta, and
only over a summation window: the points whose log summand lies within
``TAIL_DROP`` natural-log units of the mode's, plus the first point past that
on each side that has one. The same rule cuts finite and infinite sides.
Every point off the window has a pmf that rounds to exactly 0.0 in double
precision, so no pmf, cdf or sf value depends on the cut. Every family keeps
its log weights in one store, their only copy: a distribution holds ``xs``,
``e``, ``s`` and ``log_norm`` and reads log pmfs from the store. On a bounded
support the store is the whole table, read once; on an unbounded side it is
the last window and half its width past each end, in the support, replaced
when a window falls outside it. A weight off the store costs a ``log_weight``
call. Strict log-concavity is checked in floats where weights enter the store:
a bounded table when it is read, an unbounded family's first window before
its first span is kept. Both window search predicates are monotone on such
weights, so each search may start where the last window was found. A
reflection, the family of -X, keeps no weights and searches nothing: its
distribution is a view of its source's at -theta, read at the opposite point.

Each tail is summed on its own (upper tails are never one minus a cdf), so
jump heights of order the smallest pmf value survive in float arithmetic. A
tail is summed only when it is asked for, as one pairwise sum over the part
of the window it covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DivergentSearch,
    EmptySupport,
    InadmissibleInfiniteTheta,
    KEqualsX,
    NotLogConcave,
    OutOfSupport,
    UnboundedEnumeration,
)

# Window rule: a summand this many nats below the mode's has pmf at most
# exp(-TAIL_DROP), and exp(t) rounds to 0.0 for t below the log of half the
# smallest subnormal (-745.13), so every term past the cut is exactly 0.0.
TAIL_DROP = math.ceil(math.log(2.0) - math.log(math.ulp(0.0)))

# Hard caps so a misdeclared family fails loudly instead of hanging. The window
# cap bounds how far an unbounded side reaches from the finite end, if any;
# the step cap bounds every doubling walk of ``_search``.
_MAX_WINDOW = 2_000_000
STEP_CAP = 1 << 42


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_x(owner, x) -> int:
    """x as an int if in ``owner.support``, else OutOfSupport (non-integers and bools too): the one
    membership check of the public entries, ``logpmf``, ``point_estimate`` and ``special_param``."""
    if x not in owner.support:
        raise OutOfSupport(f"x = {x} is not in the support")
    return int(x)


def _search(pred: Callable, start: int, direction: int, end: int | float, step: int) -> int:
    """First x past ``start`` in ``direction`` with pred(x) true, or ``end``.

    pred must be false at start and monotone along the walk. Probes sit at
    start + direction * step with the step doubling until pred holds or the
    walk reaches ``end``, then a bisection finds the first point. A probe
    with step above ``STEP_CAP`` (read at call time) raises DivergentSearch
    instead.
    """
    near = start
    while True:
        far = start + direction * step
        if direction * (far - end) >= 0:
            far = int(end)
            if not pred(far):
                return far
            break
        if step > STEP_CAP:
            raise DivergentSearch(f"the doubling search from x = {start} did not end")
        if pred(far):
            break
        near, step = far, 2 * step
    while abs(far - near) > 1:
        mid = (near + far) // 2
        if pred(mid):
            far = mid
        else:
            near = mid
    return far


@dataclass(frozen=True)
class LatticeSupport:
    """An interval of integers, possibly unbounded on either side.

    ``lo`` is an int or -inf, ``hi`` an int or +inf. Membership tests use
    exact integer arithmetic; non-integers are never members.
    """

    lo: int | float
    hi: int | float

    def __post_init__(self):
        if not (_is_int(self.lo) or (isinstance(self.lo, float) and self.lo == -math.inf)):
            raise ValueError("lo must be an integer or -inf")
        if not (_is_int(self.hi) or (isinstance(self.hi, float) and self.hi == math.inf)):
            raise ValueError("hi must be an integer or +inf")
        if self.lo > self.hi:
            raise EmptySupport(f"empty support: lo = {self.lo} > hi = {self.hi}")

    # cached: each evaluation's _window and _tabulate ask these
    @cached_property
    def bounded_below(self) -> bool:
        return self.lo != -math.inf

    @cached_property
    def bounded_above(self) -> bool:
        return self.hi != math.inf

    @cached_property
    def bounded(self) -> bool:
        return self.bounded_below and self.bounded_above

    def __contains__(self, x) -> bool:
        return _is_int(x) and self.lo <= x <= self.hi

    def points(self) -> np.ndarray:
        if not self.bounded:
            raise UnboundedEnumeration("cannot enumerate an unbounded support")
        return np.arange(int(self.lo), int(self.hi) + 1)


@dataclass  # not frozen: one is built per evaluation, and a frozen __init__ sets fields slowly
class Distribution:
    """The family at a fixed theta, tabulated on its summation window.

    It holds the window's points ``xs`` (float64, so the tabulation needs no
    cast), ``e`` = exp(log w_x + theta x - the mode's), ``s`` = sum(e) and
    ``log_norm``, and reads log pmfs from the family's store, of which
    ``logw`` is the window's view. A one-point window is a point mass. Every
    outcome off the window has a pmf that is exactly 0.0 in double precision,
    so ``cdf`` is 0 below the window and 1 from its last point on; ``sf(x)``
    is the inclusive upper tail P(X >= x). Each tail is one pairwise sum of
    its own contiguous slice of ``e`` (numpy's, whose rounding grows as log n),
    divided by ``s``; the mean and the slopes are ``einsum`` reductions. None
    of them calls BLAS, so no value depends on a thread count.
    """

    support: LatticeSupport
    theta: float
    xs: np.ndarray
    log_norm: float
    e: np.ndarray
    s: float
    logw: np.ndarray | None = field(repr=False, default=None)
    _logw: Callable | None = field(repr=False, default=None)

    @cached_property
    def logpmf_values(self) -> np.ndarray:
        return np.zeros(1) if self.logw is None else self.logw + self.theta * self.xs - self.log_norm

    @cached_property
    def pmf_values(self) -> np.ndarray:
        return self.e / self.s

    @cached_property
    def _ends(self) -> tuple[int, int]:
        return int(self.xs[0]), int(self.xs[-1])

    def logpmf(self, x) -> float:
        x = _check_x(self, x)
        if self.logw is None:  # a point mass
            return 0.0 if x == self._ends[0] else -math.inf
        return self._logw(x) + self.theta * x - self.log_norm

    def pmf(self, x) -> float:
        return math.exp(self.logpmf(x))

    def cdf(self, x) -> float:
        """P(X <= x) for any integer x."""
        a, b = self._ends
        if x < a:
            return 0.0
        if x >= b:
            return 1.0
        return min(float(np.add.reduce(self.e[: x - a + 1])) / self.s, 1.0)

    def sf(self, x) -> float:
        """P(X >= x) for any integer x, summed over the tail alone."""
        a, b = self._ends
        if x <= a:
            return 1.0
        if x > b:
            return 0.0
        return min(float(np.add.reduce(self.e[x - a :])) / self.s, 1.0)

    @cached_property
    def mean(self) -> float:
        return float(np.einsum("i,i->", self.xs, self.e)) / self.s

    def cdf_slope(self, x) -> float:
        """d/dtheta P(X <= x) = sum over y <= x of (y - E X) p_y, summed over that tail."""
        a, b = self._ends
        if x < a or x >= b:
            return 0.0
        i = x - a + 1
        return float(np.einsum("i,i->", self.xs[:i] - self.mean, self.e[:i])) / self.s

    def sf_slope(self, x) -> float:
        """d/dtheta P(X >= x) = sum over y >= x of (y - E X) p_y, summed over that tail."""
        a, b = self._ends
        if x <= a or x > b:
            return 0.0
        i = x - a
        return float(np.einsum("i,i->", self.xs[i:] - self.mean, self.e[i:])) / self.s


class _Mirror(Distribution):
    """The distribution of -X at theta, a view of ``source``, X's at -theta.

    It computes nothing of its own: each tail is the source's opposite tail
    at -x and each slope the source's opposite slope, negated, so both read
    the same doubles. ``xs``, ``e`` and ``logw`` are reversed views, built when
    first read; -theta times -x is exact, so the value arrays are the source's reversed.
    """

    def __init__(self, source: Distribution, support: LatticeSupport, theta: float):
        self.source, self.support, self.theta = source, support, theta
        self.s, self.log_norm = source.s, source.log_norm

    xs = cached_property(lambda self: -self.source.xs[::-1])
    e = cached_property(lambda self: self.source.e[::-1])
    logw = cached_property(lambda self: None if self.source.logw is None else self.source.logw[::-1])
    mean = cached_property(lambda self: -self.source.mean)

    def logpmf(self, x) -> float:
        return self.source.logpmf(-_check_x(self, x))

    def cdf(self, x) -> float:
        return self.source.sf(-x)

    def sf(self, x) -> float:
        return self.source.cdf(-x)

    def cdf_slope(self, x) -> float:
        return -self.source.sf_slope(-x)

    def sf_slope(self, x) -> float:
        return -self.source.cdf_slope(-x)


@dataclass(frozen=True)
class LatticeFamily:
    """Weights w_x > 0 on a lattice support, given as ``log_weight``.

    ``log_weight`` must accept a float ndarray of support points and return
    log w_x elementwise: its double at x may not depend on the other points in
    the call, as weights are read off calls over whole tables and spans. It must
    be a total function on the support. Every summation window is cut by the
    TAIL_DROP rule alone. Strict log-concavity is checked where weights enter
    the store; a reflection is checked as its source, so errors name the
    source's outcomes.
    """

    support: LatticeSupport
    log_weight: Callable

    def __post_init__(self):
        if self.support.bounded and self.support.lo == self.support.hi:
            raise EmptySupport("support has a single point; intervals are degenerate")

    @cached_property
    def _span(self) -> tuple[int, np.ndarray]:
        # (first, log w_first, ...): a bounded support's checked table; unbounded, empty
        if not self.support.bounded:
            return 0, np.empty(0)
        table = np.asarray(self.log_weight(self.support.points().astype(float)), dtype=float)
        _check_concavity(int(self.support.lo), table)
        return int(self.support.lo), table

    @cached_property
    def _reflection(self) -> LatticeFamily:
        # -inf and +inf swap sides like the integer ends
        ref = LatticeFamily(LatticeSupport(-self.support.hi, -self.support.lo),
                            lambda z: self.log_weight(-np.asarray(z)))
        # the reflection evaluates and reads its weights through its source, and reflects back
        ref.__dict__.update(_source=self, _reflection=self, _span=(0, np.empty(0)))
        return ref

    def _log_weights(self, a: int, b: int) -> np.ndarray:
        """log w_x for x = a..b: the span's if it covers them, else one call."""
        first, span = self._span
        if first <= a and b < first + len(span):
            return span[a - first : b - first + 1]
        return np.asarray(self.log_weight(np.arange(a, b + 1, dtype=float)), dtype=float)

    def _logw(self, x: int) -> float:
        first, span = self._span
        if 0 <= x - first < len(span):
            return span.item(x - first)
        if "_source" in self.__dict__:
            return self._source._logw(-x)
        return float(self.log_weight(np.asarray([x], dtype=float))[0])

    def _score(self, x: int, theta: float) -> float:
        return self._logw(x) + theta * int(x)

    def _mode(self, theta: float) -> int:
        """Argmax of log w_x + theta x: the first x where the summands stop rising.

        rising(x) is fl(fl(log w_{x+1} - log w_x) + theta) > 0, monotone in x
        because the differences are strictly decreasing and float rounding is
        monotone, so every search for its first false point finds the same x.
        It gallops from the last mode found, or at first from the support point
        nearest 0, reading both weights of a probe in one ``_log_weights`` call,
        so a probe off an unbounded family's span costs one ``log_weight`` call.
        """
        lo, hi = self.support.lo, self.support.hi

        def rising(x: int) -> bool:
            if x >= hi:
                return False
            w, w_next = self._log_weights(x, x + 1).tolist()
            return w_next - w + theta > 0.0

        hint = self.__dict__.get("_hint")
        anchor = hint[0] if hint else int(min(max(0, lo), hi))
        if rising(anchor):
            return _search(lambda x: not rising(x), anchor, +1, hi, 1)
        if anchor == lo or rising(anchor - 1):
            return anchor
        return _search(lambda x: x == lo or rising(x - 1), anchor, -1, lo, 1)

    def _tail_cut(self, theta: float, mode: int, g_mode: float, direction: int) -> int:
        """First point past the mode whose log summand sits TAIL_DROP below it,
        or the support end on that side when no point does.

        dropped(x) is monotone outward from the mode, so any start finds the
        same point. The search starts at the last cut's distance from the mode
        (at first, at the mode), clamped to the support, and walks out or back
        from there.
        """
        end = self.support.hi if direction > 0 else self.support.lo
        dropped = lambda x: g_mode - self._score(x, theta) > TAIL_DROP
        reach = self.__dict__.get("_hint", (mode, 0, 0))[1 if direction < 0 else 2]
        start = mode + direction * reach
        if direction * (start - end) >= 0:
            start = int(end)
        if not dropped(start):
            return _search(dropped, start, direction, end, 1)
        # the last point not yet dropped, walking back toward the mode
        return _search(lambda x: not dropped(x), start, -direction, mode, 1) + direction

    def _window(self, theta: float) -> tuple[int, int, float]:
        """(a, b, g_mode): the summation window at theta and the mode's log summand;
        a == b is a point mass, at the end of an infinite theta or at the mode."""
        if math.isinf(theta):
            end = self.support.lo if theta < 0 else self.support.hi
            if not _is_int(end):
                raise InadmissibleInfiniteTheta(
                    f"theta = {theta} is inadmissible: that support end is unbounded")
            return int(end), int(end), 0.0
        m = self._mode(theta)
        gm = self._score(m, theta)
        if math.isinf(gm) and math.isfinite(self._logw(m)):  # theta m overflows
            return m, m, gm
        a = self._tail_cut(theta, m, gm, -1)
        b = self._tail_cut(theta, m, gm, +1)
        if not self.support.bounded:
            first = int(self.support.lo) if self.support.bounded_below else a
            last = int(self.support.hi) if self.support.bounded_above else b
            if last - first + 1 > _MAX_WINDOW:
                raise UnboundedEnumeration(
                    f"summation window [{first}, {last}] at theta = {theta} is too large"
                )
        # start point of the next window search; any start gives the same window
        self.__dict__["_hint"] = (m, m - a, b - m)
        return a, b, gm

    def distribution(self, theta: float) -> Distribution:
        """Tabulate the family at theta (extended values included).

        A reflection returns a view of its source's fresh distribution at
        -theta, so each tail is the source's opposite tail, bit for bit.
        """
        if isinstance(theta, (int, np.integer)):
            theta = float(theta)
        if not isinstance(theta, float) or math.isnan(theta):
            raise ValueError(f"theta must be a float, got {theta!r}")
        source = self.__dict__.get("_source")
        if source is None:
            return self._tabulate(theta)
        return _Mirror(source._tabulate(-theta), self.support, theta)

    def _tabulate(self, theta: float) -> Distribution:
        """The distribution at theta of a family that is no reflection."""
        a, b, gm = self._window(theta)
        if a == b:
            return Distribution(self.support, theta, np.asarray([a], dtype=float), 0.0, np.ones(1), 1.0)
        first, span = self._span
        if not (first <= a and b < first + len(span)):
            # only an unbounded support's span can miss a window; it is replaced,
            # never grown: the window and half its width past each end, in the support
            reach = (b - a + 1) // 2
            first, last = max(a - reach, self.support.lo), min(b + reach, self.support.hi)
            stored = self._log_weights(first, last)
            if not len(span):  # an unbounded family's first weights, checked before they are kept
                _check_concavity(a, stored[a - first : b - first + 1])
            self.__dict__["_span"] = (first, stored)
        logw = self._log_weights(a, b)
        xs = np.arange(a, b + 1, dtype=float)
        e = theta * xs
        e += logw
        e -= gm
        np.exp(e, out=e)
        s = float(e.sum())
        return Distribution(self.support, theta, xs, gm + math.log(s), e, s, logw, self._logw)


def validate(family: LatticeFamily, theta: float = 0.0) -> None:
    """Check strict log-concavity of the weights the window searches read.

    It runs ``family.distribution(theta)``, which refuses theta as every evaluation
    does; a reflection is then checked as its source at -theta. A bounded support is
    checked whole; an unbounded one only over that evaluation's window (tail behaviour
    is the constructor's responsibility). The check is strict in floats because the
    searches' predicates are monotone only on strictly decreasing float differences.
    Raises :class:`NotLogConcave` carrying the first violating interior index. Every
    family runs the same check where weights enter its store.
    """
    d = family.distribution(theta)
    if "_source" in family.__dict__:  # the reflection's distribution is a view of its source's
        family, d = family._source, d.source
    first, last = (family.support.lo, family.support.hi) if family.support.bounded else d._ends
    _check_concavity(int(first), family._log_weights(int(first), int(last)))


def _check_concavity(first: int, logw: np.ndarray) -> None:
    """Raise NotLogConcave at the first bad point of log w_first, log w_first+1, ..."""
    bad = np.nonzero(~np.isfinite(logw))[0]
    if bad.size:
        raise NotLogConcave(first + int(bad[0]))
    d = np.diff(logw)
    bad = np.nonzero(d[1:] >= d[:-1])[0]
    if bad.size:
        raise NotLogConcave(first + int(bad[0]) + 1)


def special_param(family: LatticeFamily, x: int, k: int) -> float:
    """The parameter where f_theta(k) = f_theta(x):

        theta_{k,x} = (log w_x - log w_k) / (k - x),

    strictly increasing in k. The sentinels k = lo - 1 and k = hi + 1 (for
    finite endpoints) give -inf and +inf.
    """
    x = _check_x(family, x)
    if k not in family.support:
        # only an int can be a sentinel: 21.0 == 21 and True == 1 are none
        if _is_int(k) and family.support.bounded_below and k == int(family.support.lo) - 1:
            return -math.inf
        if _is_int(k) and family.support.bounded_above and k == int(family.support.hi) + 1:
            return math.inf
        raise OutOfSupport(f"k = {k} is not in the support (nor a sentinel)")
    if k == x:
        raise KEqualsX("theta_{k,x} is undefined for k = x")
    return (family._logw(x) - family._logw(k)) / (int(k) - int(x))


def plateau(family: LatticeFamily, x: int) -> tuple[float, float]:
    """The closed parameter interval on which the two-sided p-value of x is 1.

    Equals [theta_{x-1,x}, theta_{x+1,x}] with infinite sentinels at the
    support ends.
    """
    return special_param(family, x, x - 1), special_param(family, x, x + 1)


def reflect(family: LatticeFamily) -> LatticeFamily:
    """The family of -X; lower-bound searches run upward in the reflection.

    Built once per family and cached. It has no evaluator and no weights of its
    own: it reads the original's distributions backwards and its weights
    through the original, so its tails are the original's bit for bit, and
    reflecting it again returns the original.
    """
    return family._reflection
