"""The public API: what ``exactci`` exports, and where the internals live."""

import dataclasses
import importlib

import exactci

PUBLIC = [
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

# search internals that stay importable from their modules
INTERNALS = {
    "exactci.family": ["plateau", "reflect"],
    "exactci.sterne": ["SterneResult", "stage_one", "stage_two"],
    "exactci.coverage": ["interval_bounds", "_interval"],
}


def test_exports_are_the_public_api():
    assert len(PUBLIC) == 42
    assert sorted(exactci.__all__) == PUBLIC


def test_a_family_is_its_support_and_its_weights():
    fields = [f.name for f in dataclasses.fields(exactci.LatticeFamily)]
    assert fields == ["support", "log_weight"]


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from exactci import *", namespace)
    assert all(name in namespace for name in PUBLIC)


def test_internals_import_from_their_modules():
    for module, names in INTERNALS.items():
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name}"
            assert name not in exactci.__all__
