"""Span tracing of exactci's layers, installed from outside the package.

Each public function of the package modules is wrapped where it is looked
up: a function imported into several modules is patched in each of them, so
every call goes through exactly one wrapper. ``LatticeFamily.distribution``
is patched on the class. The shipped model constructors are wrapped so that
the models they return carry a wrapped ``log_weight``.

Spans (name, start, end, parent, operation id, points) are kept in memory and
written once by :meth:`Tracer.write`. Self time is a span's duration minus
the time its child spans cover. A target that a refactor has removed is
recorded in ``Tracer.absent`` and skipped.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name); "LatticeFamily.distribution" names a method.
TARGETS = [
    ("exactci.family", "LatticeFamily.distribution", "family.distribution"),
    ("exactci.family", "special_param", "family.special_param"),
    ("exactci.sterne", "special_param", "family.special_param"),
    ("exactci.cli", "special_param", "family.special_param"),
    ("exactci.sterne", "reflect", "family.reflect"),
    ("exactci.models", "make_binomial", "models.make_binomial"),
    ("exactci.models", "make_poisson", "models.make_poisson"),
    ("exactci.models", "make_odds_ratio", "models.make_odds_ratio"),
    ("exactci.cli", "make_binomial", "models.make_binomial"),
    ("exactci.cli", "make_poisson", "models.make_poisson"),
    ("exactci.cli", "make_odds_ratio", "models.make_odds_ratio"),
    ("exactci.sterne", "sterne_interval", "sterne.sterne_interval"),
    ("exactci.coverage", "sterne_interval", "sterne.sterne_interval"),
    ("exactci.cli", "sterne_interval", "sterne.sterne_interval"),
    ("exactci.sterne", "stage_one", "sterne.stage_one"),
    ("exactci.sterne", "stage_two", "sterne.stage_two"),
    ("exactci.sterne", "sterne_pvalue", "sterne.sterne_pvalue"),
    ("exactci.cli", "sterne_pvalue", "sterne.sterne_pvalue"),
    ("exactci.cli", "jump_limits", "sterne.jump_limits"),
    ("exactci.bounds", "upper_bound", "bounds.upper_bound"),
    ("exactci.sterne", "upper_bound", "bounds.upper_bound"),
    ("exactci.coverage", "upper_bound", "bounds.upper_bound"),
    ("exactci.bounds", "lower_bound", "bounds.lower_bound"),
    ("exactci.coverage", "lower_bound", "bounds.lower_bound"),
    ("exactci.bounds", "clopper_pearson", "bounds.clopper_pearson"),
    ("exactci.coverage", "clopper_pearson", "bounds.clopper_pearson"),
    ("exactci.cli", "clopper_pearson", "bounds.clopper_pearson"),
    ("exactci.cli", "one_sided_interval", "bounds.one_sided_interval"),
    ("exactci.coverage", "exact_coverage", "coverage.exact_coverage"),
    ("exactci.cli", "exact_coverage", "coverage.exact_coverage"),
    ("exactci.coverage", "interval_bounds", "coverage.interval_bounds"),
    ("exactci.coverage", "length_table", "coverage.length_table"),
    ("exactci.cli", "run", "cli.run"),
]

DISTRIBUTION = "family.distribution"
LOG_WEIGHT = "models.log_weight"

# Per-layer metrics: (metric name, unit, span name, statistic). "evals" counts
# the distribution spans nested anywhere inside the named span.
PER_LAYER = [
    ("family.distribution.calls", "count", DISTRIBUTION, "calls"),
    ("family.distribution.self_ms", "ms", DISTRIBUTION, "self_ms"),
    ("family.distribution.window_points", "points", DISTRIBUTION, "mean_points"),
    ("family.special_param.calls", "count", "family.special_param", "calls"),
    ("models.log_weight.points", "points", LOG_WEIGHT, "points"),
    ("sterne.stage_one.evals", "count", "sterne.stage_one", "evals"),
    ("sterne.stage_two.evals", "count", "sterne.stage_two", "evals"),
    ("sterne.sterne_pvalue.self_ms", "ms", "sterne.sterne_pvalue", "self_ms"),
    ("bounds.upper_bound.evals", "count", "bounds.upper_bound", "evals"),
    ("bounds.lower_bound.evals", "count", "bounds.lower_bound", "evals"),
    ("coverage.interval_bounds.calls", "count", "coverage.interval_bounds", "calls"),
    ("coverage.exact_coverage.self_ms", "ms", "coverage.exact_coverage", "self_ms"),
    ("cli.run.self_ms", "ms", "cli.run", "self_ms"),
]
OVERHEAD = ("trace.overhead_ms", "ms")

_NAME, _START, _END, _PARENT, _OP, _POINTS = range(6)


def _resolve(module_name: str, attr: str):
    """(owner, leaf attribute) for a dotted target, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf


class Tracer:
    """Records spans around exactci's layer boundaries while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, points=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[_END] = clock()
            if points is not None:
                span[_POINTS] = points(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_maker(self, name: str, maker):
        """A model constructor whose models count the points given to log_weight."""
        lw_points = lambda args, result: len(args[0])
        traced_maker = self.wrap(name, maker)

        def make(*args, **kwargs):
            model = traced_maker(*args, **kwargs)
            fam = model.family
            logw = self.wrap(LOG_WEIGHT, fam.log_weight, lw_points)
            return dataclasses.replace(model, family=dataclasses.replace(fam, log_weight=logw))

        make.__wrapped__ = maker
        return make

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner, leaf = found
            fn = getattr(owner, leaf)
            if name == DISTRIBUTION:
                wrapped = self.wrap(name, fn, lambda args, result: len(result.xs))
            elif name.startswith("models.make_"):
                wrapped = self._wrap_maker(name, fn)
            else:
                wrapped = self.wrap(name, fn)
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved = []

    def per_layer(self, ops: int) -> dict:
        """Per-operation layer metrics over the spans recorded inside operations."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        points = defaultdict(int)
        evals = defaultdict(int)
        spans = self.spans
        for s in spans:
            if s[_OP] is None:
                continue
            name = s[_NAME]
            calls[name] += 1
            total[name] += s[_END] - s[_START]
            points[name] += s[_POINTS]
            if s[_PARENT] >= 0:
                child[spans[s[_PARENT]][_NAME]] += s[_END] - s[_START]
            if name == DISTRIBUTION:
                seen = set()
                p = s[_PARENT]
                while p >= 0:
                    seen.add(spans[p][_NAME])
                    p = spans[p][_PARENT]
                for ancestor in seen:
                    evals[ancestor] += 1
        ops = max(ops, 1)
        out = {}
        for metric, unit, name, stat in PER_LAYER:
            if stat == "calls":
                value = calls[name] / ops
            elif stat == "self_ms":
                value = 1e3 * (total[name] - child[name]) / ops
            elif stat == "mean_points":
                value = points[name] / calls[name] if calls[name] else 0.0
            elif stat == "points":
                value = points[name] / ops
            else:
                value = evals[name] / ops
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Write the spans once, as one JSON document with a name table."""
        names = sorted({s[_NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][_START] if self.spans else 0.0
        rows = [
            [index[s[_NAME]], round((s[_START] - t0) * 1e6, 1), round((s[_END] - t0) * 1e6, 1),
             s[_PARENT], s[_OP], s[_POINTS]]
            for s in self.spans
        ]
        doc = {
            "columns": ["name", "start_us", "end_us", "parent", "op", "points"],
            "names": names,
            "absent": self.absent,
            "spans": rows,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
