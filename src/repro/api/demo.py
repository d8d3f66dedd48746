"""Canonical demo requests: one valid invocation per registered algorithm.

The CLI's ``repro plan`` verb, the golden-plan suite and the plan/imperative
equivalence tests all need *some* well-formed (y, x, parameters) triple for
every algorithm in the registry.  Keeping the triples in one place means a
newly registered algorithm fails loudly in exactly one spot (the coverage
test) instead of silently missing from three.

Variables come from the ``dementia`` demo data model generated by
:func:`repro.data.cohorts.generate_cohort`.
"""

from __future__ import annotations

from typing import Any, Mapping


#: algorithm name -> {"y": ..., "x": ..., "parameters": ...} against the
#: ``dementia`` data model.  Parameters are pinned (seeds included) so plans
#: and results are byte-stable across runs.
DEMO_REQUESTS: Mapping[str, Mapping[str, Any]] = {
    "anova_oneway": {
        "y": ("lefthippocampus",), "x": ("alzheimerbroadcategory",),
        "parameters": {},
    },
    "anova_twoway": {
        "y": ("lefthippocampus",), "x": ("alzheimerbroadcategory", "gender"),
        "parameters": {},
    },
    "calibration_belt": {
        "y": ("converted_ad",), "x": ("predicted_risk",), "parameters": {},
    },
    "cart": {
        "y": ("alzheimerbroadcategory",), "x": ("lefthippocampus", "p_tau"),
        "parameters": {"max_depth": 2},
    },
    "descriptive_stats": {"y": ("p_tau",), "x": (), "parameters": {}},
    "federated_training": {
        "y": ("converted_ad",), "x": ("p_tau", "lefthippocampus"),
        "parameters": {"mode": "newton", "rounds": 3},
    },
    "histogram": {
        "y": ("lefthippocampus",), "x": (), "parameters": {"n_bins": 10},
    },
    "id3": {
        "y": ("alzheimerbroadcategory",), "x": ("gender", "va_etiology"),
        "parameters": {"max_depth": 2, "min_gain": 0.0},
    },
    "kaplan_meier": {
        "y": ("survival_months", "event_observed"), "x": (), "parameters": {},
    },
    "kmeans": {
        "y": ("ab_42", "p_tau"), "x": (), "parameters": {"k": 2, "seed": 3},
    },
    "linear_regression": {
        "y": ("lefthippocampus",), "x": ("agevalue", "alzheimerbroadcategory"),
        "parameters": {},
    },
    "linear_regression_cv": {
        "y": ("lefthippocampus",), "x": ("agevalue",),
        "parameters": {"n_splits": 3},
    },
    "logistic_regression": {
        "y": ("converted_ad",), "x": ("p_tau", "lefthippocampus"),
        "parameters": {},
    },
    "logistic_regression_cv": {
        "y": ("converted_ad",), "x": ("p_tau",),
        "parameters": {"n_splits": 3},
    },
    "naive_bayes": {
        "y": ("alzheimerbroadcategory",), "x": ("lefthippocampus", "gender"),
        "parameters": {},
    },
    "naive_bayes_cv": {
        "y": ("alzheimerbroadcategory",), "x": ("lefthippocampus",),
        "parameters": {"n_splits": 3},
    },
    "pca": {
        "y": ("lefthippocampus", "righthippocampus", "p_tau"), "x": (),
        "parameters": {},
    },
    "pearson_correlation": {
        "y": ("lefthippocampus", "minimentalstate"), "x": (), "parameters": {},
    },
    "ttest_independent": {
        "y": ("lefthippocampus",), "x": ("gender",), "parameters": {},
    },
    "ttest_onesample": {"y": ("p_tau",), "x": (), "parameters": {"mu": 50.0}},
    "ttest_paired": {
        "y": ("lefthippocampus", "righthippocampus"), "x": (), "parameters": {},
    },
}


def demo_request(algorithm: str) -> dict[str, Any]:
    """The demo (y, x, parameters) for one algorithm; raises KeyError."""
    entry = DEMO_REQUESTS[algorithm]
    return {
        "y": tuple(entry["y"]),
        "x": tuple(entry["x"]),
        "parameters": dict(entry["parameters"]),
    }
