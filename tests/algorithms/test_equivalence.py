"""Federation-invariance: results do not depend on how data is partitioned.

The core correctness claim of a federated analytics platform: running an
algorithm over k workers must equal running it with all data on one worker
(and, through E3, equal the centralized computation).  Also checks that the
secure (SMPC) and plain aggregation paths agree.
"""

import numpy as np
import pytest

from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.federation.controller import FederationConfig, create_federation

DATASETS = ("edsd", "adni")


EDSD = CohortSpec("edsd", 140, seed=77)
ADNI = CohortSpec("adni", 120, seed=78)
CONFIG = FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=5)


def split_federation():
    """The rows as two workers."""
    return create_federation(
        {"h1": {"dementia": generate_cohort(EDSD)},
         "h2": {"dementia": generate_cohort(ADNI)}},
        CONFIG,
    )


def single_federation():
    """The same rows as one worker."""
    rows = generate_cohort(EDSD).concat(generate_cohort(ADNI))
    return create_federation({"h_all": {"dementia": rows}}, CONFIG)


@pytest.fixture(scope="module")
def engines():
    single, split = single_federation(), split_federation()
    yield (
        ExperimentEngine(single, aggregation="plain"),
        ExperimentEngine(split, aggregation="plain"),
    )
    single.shutdown()
    split.shutdown()


@pytest.fixture(scope="module")
def split_engines():
    split = split_federation()
    yield (
        ExperimentEngine(split, aggregation="plain"),
        ExperimentEngine(split, aggregation="smpc"),
    )
    split.shutdown()


CASES = [
    ("linear_regression", ("lefthippocampus",), ("agevalue", "alzheimerbroadcategory"),
     {}, ("coefficients", "std_err", "r_squared")),
    ("logistic_regression", ("converted_ad",), ("p_tau", "lefthippocampus"),
     {}, ("coefficients", "accuracy", "log_likelihood")),
    ("ttest_independent", ("lefthippocampus",), ("gender",),
     {}, ("t_statistic", "p_value")),
    ("ttest_onesample", ("p_tau",), (), {"mu": 50.0}, ("t_statistic",)),
    ("ttest_paired", ("lefthippocampus", "righthippocampus"), (),
     {}, ("t_statistic",)),
    ("anova_oneway", ("lefthippocampus",), ("alzheimerbroadcategory",),
     {}, ("f_statistic", "p_value")),
    ("pearson_correlation", ("lefthippocampus", "minimentalstate"), (),
     {}, ("correlations",)),
    ("pca", ("lefthippocampus", "righthippocampus", "p_tau"), (),
     {}, ("eigenvalues", "eigenvectors")),
    ("kmeans", ("ab_42", "p_tau"), (), {"k": 2, "seed": 3}, ("centroids", "inertia")),
    ("naive_bayes", ("alzheimerbroadcategory",), ("lefthippocampus", "gender"),
     {}, ("model",)),
    ("kaplan_meier", ("survival_months", "event_observed"), (),
     {}, ("curves",)),
    ("cart", ("alzheimerbroadcategory",), ("lefthippocampus", "p_tau"),
     {"max_depth": 2}, ("tree",)),
    ("id3", ("alzheimerbroadcategory",), ("gender", "va_etiology"),
     {"max_depth": 2, "min_gain": 0.0}, ("tree",)),
    ("calibration_belt", ("converted_ad",), ("predicted_risk",),
     {}, ("degree", "test_statistic")),
    ("descriptive_stats", ("p_tau",), (), {}, ("pooled",)),
    ("linear_regression_cv", ("lefthippocampus",), ("agevalue",),
     {"n_splits": 3}, ()),  # folds are split locally, so only run-success
    ("naive_bayes_cv", ("alzheimerbroadcategory",), ("lefthippocampus",),
     {"n_splits": 3}, ()),
    ("anova_twoway", ("lefthippocampus",), ("alzheimerbroadcategory", "gender"),
     {}, ("terms",)),
]


def run_one(engine, algorithm, y, x, parameters):
    result = engine.run(
        ExperimentRequest(
            algorithm=algorithm,
            data_model="dementia",
            datasets=DATASETS,
            y=y,
            x=x,
            parameters=parameters,
        )
    )
    assert result.status.value == "success", f"{algorithm}: {result.error}"
    return result.result


def assert_close(a, b, path=""):
    if isinstance(a, dict):
        assert set(a) == set(b), f"{path}: keys differ"
        for key in a:
            assert_close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length differs"
        for index, (x, y) in enumerate(zip(a, b)):
            assert_close(x, y, f"{path}[{index}]")
    elif isinstance(a, float):
        assert b == pytest.approx(a, rel=1e-5, abs=1e-4), f"{path}: {a} != {b}"
    else:
        assert a == b, f"{path}: {a} != {b}"


@pytest.mark.parametrize("algorithm, y, x, parameters, keys", CASES,
                         ids=[c[0] for c in CASES])
def test_one_worker_equals_two_workers(engines, algorithm, y, x, parameters, keys):
    single_engine, split_engine = engines
    single = run_one(single_engine, algorithm, y, x, parameters)
    split = run_one(split_engine, algorithm, y, x, parameters)
    for key in keys:
        if algorithm == "descriptive_stats" and key == "pooled":
            # per-dataset tables depend on data placement; pooled must not
            assert_close(single[key], split[key], key)
        else:
            assert_close(single[key], split[key], key)


SMPC_CASES = [c for c in CASES if c[0] in (
    "linear_regression", "ttest_independent", "pearson_correlation", "kmeans",
)]


@pytest.mark.parametrize("algorithm, y, x, parameters, keys", SMPC_CASES,
                         ids=[c[0] for c in SMPC_CASES])
def test_plain_equals_smpc_path(split_engines, algorithm, y, x, parameters, keys):
    plain_engine, smpc_engine = split_engines
    plain = run_one(plain_engine, algorithm, y, x, parameters)
    secure = run_one(smpc_engine, algorithm, y, x, parameters)
    for key in keys:
        assert_close(plain[key], secure[key], key)
