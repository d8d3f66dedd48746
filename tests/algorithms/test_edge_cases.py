"""Algorithm edge cases on pathological (crafted) data."""

import numpy as np
import pytest

from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.federation.controller import FederationConfig, create_federation


def crafted_federation(rows_per_worker: dict[str, list[tuple]], columns):
    """Build a federation from explicit rows; columns = [(name, type), ...]."""
    schema = Schema([("dataset", SQLType.VARCHAR)] + list(columns))
    worker_data = {}
    for worker, rows in rows_per_worker.items():
        dataset = f"ds_{worker}"
        table = Table.from_rows(schema, [(dataset, *row) for row in rows])
        worker_data[worker] = {"dementia": table}
    return create_federation(
        worker_data, FederationConfig(seed=1, privacy_threshold=5)
    )


def run(federation, algorithm, y=(), x=(), parameters=None, datasets=None):
    engine = ExperimentEngine(federation, aggregation="plain")
    if datasets is None:
        datasets = tuple(sorted(federation.master.availability["dementia"]))
    return engine.run(
        ExperimentRequest(
            algorithm=algorithm, data_model="dementia", datasets=datasets,
            y=tuple(y), x=tuple(x), parameters=parameters or {},
        )
    )


class TestAllMissingVariable:
    def test_descriptive_reports_all_na(self):
        rows = [(None, 3.0)] * 20
        federation = crafted_federation(
            {"w1": rows}, [("p_tau", SQLType.REAL), ("lefthippocampus", SQLType.REAL)]
        )
        result = run(federation, "descriptive_stats", y=["p_tau"])
        assert result.status.value == "success"
        pooled = result.result["pooled"]["p_tau"]
        assert pooled["datapoints"] == 0
        assert pooled["na"] == 20
        assert "mean" not in pooled  # nothing to summarize

    def test_regression_on_all_na_hits_privacy_threshold(self):
        rows = [(None, 3.0)] * 20
        federation = crafted_federation(
            {"w1": rows}, [("p_tau", SQLType.REAL), ("lefthippocampus", SQLType.REAL)]
        )
        result = run(federation, "linear_regression",
                     y=["lefthippocampus"], x=["p_tau"])
        assert result.status.value == "error"
        assert "privacy threshold" in result.error


class TestDegenerateDistributions:
    def test_constant_variable_ttest(self):
        rows = [(42.0,)] * 30
        federation = crafted_federation({"w1": rows}, [("p_tau", SQLType.REAL)])
        result = run(federation, "ttest_onesample", y=["p_tau"],
                     parameters={"mu": 42.0})
        assert result.status.value == "error"
        assert "zero variance" in result.error

    def test_histogram_of_constant_variable(self):
        rows = [(1.5,)] * 30
        federation = crafted_federation({"w1": rows}, [("minimentalstate", SQLType.REAL)])
        result = run(federation, "histogram", y=["minimentalstate"],
                     parameters={"n_bins": 5})
        assert result.status.value == "success"
        assert result.result["histograms"]["all"]["total"] == 30

    def test_pca_with_constant_column_reports_error(self):
        rows = [(float(i), 7.0) for i in range(30)]
        federation = crafted_federation(
            {"w1": rows}, [("p_tau", SQLType.REAL), ("ab_42", SQLType.REAL)]
        )
        result = run(federation, "pca", y=["p_tau", "ab_42"])
        assert result.status.value == "error"
        assert "constant" in result.error

    def test_pca_covariance_mode_tolerates_constant(self):
        rows = [(float(i), 7.0) for i in range(30)]
        federation = crafted_federation(
            {"w1": rows}, [("p_tau", SQLType.REAL), ("ab_42", SQLType.REAL)]
        )
        result = run(federation, "pca", y=["p_tau", "ab_42"],
                     parameters={"standardize": False})
        assert result.status.value == "success"
        assert result.result["eigenvalues"][1] == pytest.approx(0.0, abs=1e-9)


class TestGroupPathologies:
    def test_anova_group_with_one_observation(self):
        rows = [(float(i % 7), "CN") for i in range(29)] + [(5.0, "AD")]
        federation = crafted_federation(
            {"w1": rows},
            [("p_tau", SQLType.REAL), ("alzheimerbroadcategory", SQLType.VARCHAR)],
        )
        result = run(federation, "anova_oneway", y=["p_tau"],
                     x=["alzheimerbroadcategory"])
        assert result.status.value == "error"
        assert "fewer than 2" in result.error

    def test_single_observed_group_rejected(self):
        rows = [(float(i), "CN") for i in range(30)]
        federation = crafted_federation(
            {"w1": rows},
            [("p_tau", SQLType.REAL), ("alzheimerbroadcategory", SQLType.VARCHAR)],
        )
        result = run(federation, "anova_oneway", y=["p_tau"],
                     x=["alzheimerbroadcategory"])
        assert result.status.value == "error"
        assert "at least 2" in result.error

    def test_kmeans_more_clusters_than_points(self):
        rows = [(float(i), float(i)) for i in range(8)]
        federation = crafted_federation(
            {"w1": rows}, [("p_tau", SQLType.REAL), ("ab_42", SQLType.REAL)]
        )
        result = run(federation, "kmeans", y=["p_tau", "ab_42"],
                     parameters={"k": 12})
        assert result.status.value == "error"
        assert "cannot form" in result.error


class TestSurvivalEdgeCases:
    def test_no_events_flat_curve(self):
        rows = [(float(10 + i), 0) for i in range(25)]
        federation = crafted_federation(
            {"w1": rows},
            [("survival_months", SQLType.REAL), ("event_observed", SQLType.INT)],
        )
        result = run(federation, "kaplan_meier",
                     y=["survival_months", "event_observed"])
        assert result.status.value == "success"
        curve = result.result["curves"]["all"]
        assert all(s == 1.0 for s in curve["survival"])
        assert curve["n_events"] == 0

    def test_all_events_curve_reaches_zero(self):
        rows = [(float(1 + i), 1) for i in range(25)]
        federation = crafted_federation(
            {"w1": rows},
            [("survival_months", SQLType.REAL), ("event_observed", SQLType.INT)],
        )
        result = run(federation, "kaplan_meier",
                     y=["survival_months", "event_observed"])
        assert result.status.value == "success"
        assert result.result["curves"]["all"]["survival"][-1] == pytest.approx(0.0)


class TestCalibrationDirections:
    def test_well_calibrated_scores_pass(self):
        """Outcomes drawn exactly from the predicted probabilities: the belt
        must not flag miscalibration."""
        rng = np.random.default_rng(7)
        probabilities = rng.uniform(0.05, 0.95, 800)
        outcomes = (rng.random(800) < probabilities).astype(int)
        rows = list(zip(probabilities.tolist(), outcomes.tolist()))
        federation = crafted_federation(
            {"w1": rows},
            [("predicted_risk", SQLType.REAL), ("converted_ad", SQLType.INT)],
        )
        result = run(federation, "calibration_belt",
                     y=["converted_ad"], x=["predicted_risk"])
        assert result.status.value == "success"
        assert result.result["well_calibrated"] is True
        assert result.result["test_p_value"] > 0.05

    def test_underconfident_scores_flagged(self):
        """Scores squeezed toward 0.5 (underconfident): slope on logit > 1."""
        rng = np.random.default_rng(8)
        true_probability = rng.uniform(0.02, 0.98, 800)
        logit = np.log(true_probability / (1 - true_probability))
        squeezed = 1 / (1 + np.exp(-0.5 * logit))
        outcomes = (rng.random(800) < true_probability).astype(int)
        rows = list(zip(squeezed.tolist(), outcomes.tolist()))
        federation = crafted_federation(
            {"w1": rows},
            [("predicted_risk", SQLType.REAL), ("converted_ad", SQLType.INT)],
        )
        result = run(federation, "calibration_belt",
                     y=["converted_ad"], x=["predicted_risk"])
        assert result.status.value == "success"
        assert result.result["well_calibrated"] is False
        assert result.result["coefficients"][1] > 1.0


class TestWorkerErrorPaths:
    def test_unknown_udf_name_fails_cleanly(self):
        from repro.errors import UDFError
        from repro.federation.messages import Message

        rows = [(1.0,)] * 20
        federation = crafted_federation({"w1": rows}, [("p_tau", SQLType.REAL)])
        worker = federation.workers["w1"]
        with pytest.raises(UDFError, match="no registered UDF"):
            worker.handle(Message("master", "w1", "run_udf", {
                "job_id": "j", "udf_name": "ghost_udf", "arguments": {},
            }))

    def test_missing_udf_argument_fails_cleanly(self):
        from repro.algorithms.ttest import ttest_moments_local
        from repro.errors import UDFError
        from repro.federation.messages import Message
        from repro.udfgen.decorators import get_spec

        rows = [(1.0,)] * 20
        federation = crafted_federation({"w1": rows}, [("p_tau", SQLType.REAL)])
        worker = federation.workers["w1"]
        with pytest.raises(UDFError, match="missing argument"):
            worker.handle(Message("master", "w1", "run_udf", {
                "job_id": "j",
                "udf_name": get_spec(ttest_moments_local).name,
                "arguments": {},
            }))


class TestUnbalancedFederation:
    def test_tiny_worker_blocks_only_itself(self):
        """A worker below the privacy threshold fails the multi-site request
        but the big site alone still works."""
        big = [(float(i % 50), ) for i in range(60)]
        tiny = [(1.0,)] * 3
        federation = crafted_federation(
            {"w_big": big, "w_tiny": tiny}, [("p_tau", SQLType.REAL)]
        )
        both = run(federation, "ttest_onesample", y=["p_tau"],
                   datasets=("ds_w_big", "ds_w_tiny"))
        assert both.status.value == "error"
        assert "privacy threshold" in both.error
        solo = run(federation, "ttest_onesample", y=["p_tau"],
                   datasets=("ds_w_big",))
        assert solo.status.value == "success"
        assert solo.result["n_observations"] == 60


@pytest.fixture
def tracing():
    from repro.observability.trace import tracer

    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    yield tracer
    tracer.reset()
    if not was_enabled:
        tracer.disable()


class TestOutOfRangeValue:
    """Worker data need not be harmonized: a value outside its CDE range
    makes that worker omit the declared bound, and secure min/max compare
    at full width instead of failing."""

    def _pooled(self, aggregation):
        schema = Schema([("dataset", SQLType.VARCHAR), ("ab_42", SQLType.REAL)])
        rows = {"w1": [800.0 + i for i in range(20)], "w2": [2500.0] + [900.0 - i for i in range(19)]}
        federation = create_federation(
            {w: {"dementia": Table.from_rows(schema, [(f"ds_{w}", v) for v in values])}
             for w, values in rows.items()},
            FederationConfig(seed=1, privacy_threshold=5, smpc_nodes=3),
        )
        result = ExperimentEngine(federation, aggregation=aggregation).run(ExperimentRequest(
            algorithm="descriptive_stats", data_model="dementia",
            datasets=("ds_w1", "ds_w2"), y=("ab_42",),
        ))
        federation.shutdown()
        assert result.status.value == "success", result.error
        return result.result["pooled"]["ab_42"]

    def test_descriptive_stats_keeps_the_value_on_both_paths(self, tracing):
        plain = self._pooled("plain")
        assert (plain["datapoints"], plain["min"], plain["max"]) == (40, 800.0, 2500.0)
        secure = self._pooled("smpc")
        assert secure["datapoints"] == 40
        assert secure["min"] == pytest.approx(800.0, abs=1e-4)
        assert secure["max"] == pytest.approx(2500.0, abs=1e-4)
        widths = {
            span.attributes["bits"] for span in tracing.spans()
            if span.name == "smpc.aggregate_key" and span.attributes["operation"] == "min"
        }
        assert widths == {82}

    def test_the_outlying_slice_omits_the_bound(self):
        from repro.algorithms.descriptive import descriptive_pooled_local
        from repro.algorithms.kmeans import kmeans_bounds_local

        metadata = {"ab_42": {"min": 100.0, "max": 2000.0}}
        inside = {"ab_42": np.array([150.0, 1999.0])}
        outside = {"ab_42": np.array([150.0, 2500.0])}
        assert descriptive_pooled_local(inside, ["ab_42"], metadata, 4)["ab_42__min"]["bound"] == 2000.0
        assert descriptive_pooled_local(outside, ["ab_42"], metadata, 4)["ab_42__min"]["bound"] is None
        assert kmeans_bounds_local(inside, ["ab_42"], metadata)["max"]["bound"] == 2000.0
        assert kmeans_bounds_local(outside, ["ab_42"], metadata)["max"]["bound"] is None


class TestEmptySliceUDFs:
    """A worker whose view is empty still sends in-bound min/max entries: the
    opposite declared extreme, which loses every comparison."""

    METADATA = {
        "ab_42": {"min": 100.0, "max": 2000.0},
        "p_tau": {"min": 5.0, "max": 200.0},
    }
    EMPTY = {"ab_42": np.array([], dtype=np.float64), "p_tau": np.array([], dtype=np.float64)}

    def test_descriptive_pooled_sends_opposite_extremes(self):
        from repro.algorithms.descriptive import descriptive_pooled_local
        from repro.udfgen.runtime import validate_secure_transfer

        payload = descriptive_pooled_local(self.EMPTY, ["ab_42"], self.METADATA, 10)
        validate_secure_transfer(payload)
        assert payload["ab_42__min"] == {"data": 2000.0, "operation": "min", "bound": 2000.0}
        assert payload["ab_42__max"] == {"data": 100.0, "operation": "max", "bound": 2000.0}
        assert payload["ab_42__count"]["data"] == 0

    def test_kmeans_bounds_sends_opposite_extremes(self):
        from repro.algorithms.kmeans import kmeans_bounds_local
        from repro.udfgen.runtime import validate_secure_transfer

        payload = kmeans_bounds_local(self.EMPTY, ["ab_42", "p_tau"], self.METADATA)
        validate_secure_transfer(payload)
        assert payload["min"] == {"data": [2000.0, 200.0], "operation": "min", "bound": 2000.0}
        assert payload["max"] == {"data": [100.0, 5.0], "operation": "max", "bound": 2000.0}
        assert payload["n"]["data"] == 0

    def test_kmeans_bounds_without_a_declared_range_stays_unbounded(self):
        from repro.algorithms.kmeans import kmeans_bounds_local

        metadata = {"ab_42": self.METADATA["ab_42"], "p_tau": {}}
        payload = kmeans_bounds_local(self.EMPTY, ["ab_42", "p_tau"], metadata)
        assert payload["min"] == {"data": [2000.0, 1e6], "operation": "min", "bound": None}
        assert payload["max"] == {"data": [100.0, -1e6], "operation": "max", "bound": None}
        full = {"ab_42": np.array([150.0, 900.0]), "p_tau": np.array([7.0, 60.0])}
        payload = kmeans_bounds_local(full, ["ab_42", "p_tau"], metadata)
        assert payload["min"]["data"] == [150.0, 7.0]
        assert payload["max"]["data"] == [900.0, 60.0]
