"""Exact confidence intervals for discrete log-concave exponential families.

The package computes one-sided exact bounds, Clopper-Pearson style two-sided
intervals and minimal-cardinality acceptance-set (Sterne) intervals for the
natural parameter of a lattice exponential family, with ready-made binomial,
Poisson and conditional odds-ratio models.
"""

from .bounds import (
    ConfidenceInterval,
    clopper_pearson,
    lower_bound,
    one_sided_interval,
    pvalue_left,
    pvalue_right,
    pvalue_two,
    upper_bound,
)
from .coverage import CoverageReport, exact_coverage, length_table, write_csv
from .errors import (
    BadAlpha,
    BadDelta,
    BadGrid,
    BadN,
    DivergentSearch,
    EmptySupport,
    ExactCIError,
    InadmissibleInfiniteTheta,
    KEqualsX,
    NotLogConcave,
    OutOfSupport,
    UnboundedEnumeration,
)
from .family import (
    Distribution,
    LatticeFamily,
    LatticeSupport,
    special_param,
    validate,
)
from .models import (
    Model,
    TwoByTwoTable,
    make_binomial,
    make_odds_ratio,
    make_poisson,
    point_estimate,
)
from .sterne import (
    DEFAULT_DELTA,
    PValueEvaluation,
    jump_limits,
    sterne_interval,
    sterne_lower,
    sterne_pvalue,
    sterne_upper,
)

__version__ = "0.1.0"

__all__ = [
    "BadAlpha",
    "BadDelta",
    "BadGrid",
    "BadN",
    "ConfidenceInterval",
    "CoverageReport",
    "DEFAULT_DELTA",
    "Distribution",
    "DivergentSearch",
    "EmptySupport",
    "ExactCIError",
    "InadmissibleInfiniteTheta",
    "KEqualsX",
    "LatticeFamily",
    "LatticeSupport",
    "Model",
    "NotLogConcave",
    "OutOfSupport",
    "PValueEvaluation",
    "TwoByTwoTable",
    "UnboundedEnumeration",
    "clopper_pearson",
    "exact_coverage",
    "jump_limits",
    "length_table",
    "lower_bound",
    "make_binomial",
    "make_odds_ratio",
    "make_poisson",
    "one_sided_interval",
    "point_estimate",
    "pvalue_left",
    "pvalue_right",
    "pvalue_two",
    "special_param",
    "sterne_interval",
    "sterne_lower",
    "sterne_pvalue",
    "sterne_upper",
    "upper_bound",
    "validate",
    "write_csv",
]
