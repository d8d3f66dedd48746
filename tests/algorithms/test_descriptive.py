"""Descriptive statistics: the Figure 3 dashboard tables."""

import contextlib

import numpy as np
import pytest


class TestPerDataset:
    def test_one_column_per_dataset(self, run):
        result = run("descriptive_stats", y=["p_tau", "leftententorhinalarea"])
        assert set(result["per_dataset"]) == {"edsd", "adni", "ppmi"}

    def test_numeric_statistics_match_direct(self, run, worker_data):
        result = run("descriptive_stats", y=["p_tau"])
        table = worker_data["hospital_a"]["dementia"]  # holds edsd
        values = np.array([v for v in table.column("p_tau").to_list() if v is not None])
        entry = result["per_dataset"]["edsd"]["p_tau"]
        assert entry["count"] == table.num_rows
        assert entry["datapoints"] == len(values)
        assert entry["na"] == table.num_rows - len(values)
        assert entry["mean"] == pytest.approx(values.mean())
        assert entry["std"] == pytest.approx(values.std(ddof=1))
        assert entry["se"] == pytest.approx(values.std(ddof=1) / np.sqrt(len(values)))
        assert entry["min"] == pytest.approx(values.min())
        assert entry["max"] == pytest.approx(values.max())
        assert entry["q2"] == pytest.approx(np.percentile(values, 50))

    def test_nominal_level_counts(self, run, worker_data):
        result = run("descriptive_stats", y=["gender"])
        table = worker_data["hospital_a"]["dementia"]
        females = sum(1 for v in table.column("gender").to_list() if v == "F")
        entry = result["per_dataset"]["edsd"]["gender"]
        assert entry["kind"] == "nominal"
        assert entry["levels"]["F"] == females

    def test_dashboard_layout_fields(self, run):
        """Each numeric cell carries the fields the Fig. 3 table shows."""
        result = run("descriptive_stats", y=["p_tau"])
        entry = result["per_dataset"]["edsd"]["p_tau"]
        for field in ("count", "datapoints", "na", "se", "mean", "min",
                      "q1", "q2", "q3", "max"):
            assert field in entry


class TestSuppression:
    def test_high_threshold_suppresses_per_dataset_stats(self, run):
        """The dashboard's NOT-ENOUGH-DATA behaviour: below the threshold a
        dataset releases only its counts."""
        result = run(
            "descriptive_stats", y=["p_tau"],
            parameters={"suppression_threshold": 10_000},
        )
        for dataset, stats in result["per_dataset"].items():
            entry = stats["p_tau"]
            assert entry["suppressed"] is True
            assert "mean" not in entry
            assert entry["count"] > 0  # counts stay visible

    def test_default_threshold_releases_stats(self, run):
        result = run("descriptive_stats", y=["p_tau"])
        for dataset, stats in result["per_dataset"].items():
            assert "mean" in stats["p_tau"]
            assert "suppressed" not in stats["p_tau"]

    def test_nominal_suppression(self, run):
        result = run(
            "descriptive_stats", y=["gender"],
            parameters={"suppression_threshold": 10_000},
        )
        for stats in result["per_dataset"].values():
            assert "levels" not in stats["gender"]
            assert stats["gender"]["suppressed"] is True


class TestPooled:
    def test_counts_add_up(self, run, pooled):
        result = run("descriptive_stats", y=["p_tau"])
        per_dataset = result["per_dataset"]
        total_datapoints = sum(per_dataset[d]["p_tau"]["datapoints"] for d in per_dataset)
        assert result["pooled"]["p_tau"]["datapoints"] == total_datapoints

    def test_pooled_moments_match_reference(self, run, pooled):
        result = run("descriptive_stats", y=["p_tau"])
        values = np.array([v for (v,) in pooled("p_tau")])
        entry = result["pooled"]["p_tau"]
        assert entry["mean"] == pytest.approx(values.mean(), rel=1e-9)
        assert entry["std"] == pytest.approx(values.std(ddof=1), rel=1e-9)
        assert entry["min"] == pytest.approx(values.min(), abs=1e-6)
        assert entry["max"] == pytest.approx(values.max(), abs=1e-6)

    def test_pooled_quantiles_approximate(self, run, pooled):
        result = run("descriptive_stats", y=["p_tau"], parameters={"n_bins": 200})
        values = np.array([v for (v,) in pooled("p_tau")])
        entry = result["pooled"]["p_tau"]
        spread = values.max() - values.min()
        for q, key in ((25, "q1"), (50, "q2"), (75, "q3")):
            assert abs(entry[key] - np.percentile(values, q)) < spread * 0.03

    def test_pooled_nominal(self, run, pooled):
        result = run("descriptive_stats", y=["gender"])
        rows = pooled("gender")
        females = sum(1 for (g,) in rows if g == "F")
        assert result["pooled"]["gender"]["levels"]["F"] == females

    def test_quantile_order(self, run):
        result = run("descriptive_stats", y=["leftententorhinalarea"])
        entry = result["pooled"]["leftententorhinalarea"]
        assert entry["min"] <= entry["q1"] <= entry["q2"] <= entry["q3"] <= entry["max"]


class TestUndeclaredRange:
    """A numeric CDE may declare no min/max.  Per-worker histograms only add
    up over one grid, so the flow first resolves the federation-wide range
    (Becher et al., *Federated Statistical Analysis*: pooled histogram
    quantiles need shared bin edges)."""

    N_BINS = 100

    @pytest.fixture()
    def toy(self, monkeypatch):
        with self.toy_federation(monkeypatch, cohort_seed=5) as toy:
            yield toy

    @staticmethod
    @contextlib.contextmanager
    def toy_federation(monkeypatch, cohort_seed):
        """Two hospitals whose values of ``free`` do not overlap."""
        from repro.data.cdes import CommonDataElement, DataModel, cde_registry
        from repro.engine.table import Schema, Table
        from repro.engine.types import SQLType
        from repro.federation.controller import FederationConfig, create_federation

        model = DataModel("toy_ranges", "1", {
            "dataset": CommonDataElement("dataset", "Dataset", SQLType.VARCHAR,
                                         is_categorical=True, enumerations=("a", "b")),
            "free": CommonDataElement("free", "No declared range", SQLType.REAL),
            "flat": CommonDataElement("flat", "Constant, no declared range", SQLType.REAL),
            "bounded": CommonDataElement("bounded", "Declared range", SQLType.REAL,
                                         min_value=0.0, max_value=1.0),
        })
        monkeypatch.setitem(cde_registry._models, model.name, model)
        rng = np.random.default_rng(cohort_seed)
        columns = {
            "a": (rng.uniform(0, 10, 600), rng.uniform(0, 1, 600)),
            "b": (rng.uniform(100, 200, 400), rng.uniform(0, 1, 400)),
        }
        schema = Schema([("dataset", SQLType.VARCHAR), ("free", SQLType.REAL),
                         ("flat", SQLType.REAL), ("bounded", SQLType.REAL)])
        tables = {
            code: Table.from_rows(
                schema, [(code, float(f), 7.5, float(b)) for f, b in zip(free, bounded)]
            )
            for code, (free, bounded) in columns.items()
        }
        federation = create_federation(
            {"w_a": {model.name: tables["a"]}, "w_b": {model.name: tables["b"]}},
            FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=3),
        )
        pooled = {
            "free": np.concatenate([columns["a"][0], columns["b"][0]]),
            "bounded": np.concatenate([columns["a"][1], columns["b"][1]]),
        }
        yield federation, pooled
        federation.shutdown()

    def run(self, federation, aggregation, y, algorithm="descriptive_stats", n_bins=N_BINS):
        """Returns ``(result, plan)`` of one experiment."""
        from repro.core.experiment import ExperimentRequest
        from repro.core.runner import ExperimentRunner

        request = ExperimentRequest(
            algorithm=algorithm, data_model="toy_ranges", datasets=("a", "b"),
            y=tuple(y), parameters={"n_bins": n_bins},
        )
        info = {}
        result, _ = ExperimentRunner(federation, aggregation=aggregation).execute(
            request, f"toy_{aggregation}_{'_'.join(y)}", info=info
        )
        return result, info["plan"].to_json()

    @pytest.mark.parametrize("aggregation", ["plain", "smpc"])
    def test_pooled_quartiles_share_one_grid(self, toy, aggregation):
        federation, pooled = toy
        entry = self.run(federation, aggregation, ["free"])[0]["pooled"]["free"]
        values = pooled["free"]
        bin_width = (values.max() - values.min()) / self.N_BINS
        exact = np.percentile(values, [25, 50, 75])
        # With each worker binning over its own range the sum of histograms
        # read q1/q2/q3 = 47.4 / 96.8 / 149.5; the pooled rows have 4.0 / 8.2 / 139.2.
        assert [entry["q1"], entry["q2"], entry["q3"]] == pytest.approx(exact, abs=bin_width)
        assert entry["min"] == pytest.approx(values.min(), abs=1e-4)
        assert entry["max"] == pytest.approx(values.max(), abs=1e-4)

    @pytest.mark.parametrize("aggregation", ["plain", "smpc"])
    def test_constant_column(self, toy, aggregation):
        federation, _ = toy
        entry = self.run(federation, aggregation, ["flat"])[0]["pooled"]["flat"]
        assert entry["datapoints"] == 1000
        for field in ("min", "q1", "q2", "q3", "max", "mean"):
            assert entry[field] == pytest.approx(7.5, abs=1e-4), field

    def test_only_the_undeclared_variable_is_resolved(self, toy):
        federation, pooled = toy
        result, plan = self.run(federation, "plain", ["bounded", "free"])
        entries = result["pooled"]
        for name, width in (("bounded", 1.0 / self.N_BINS),
                            ("free", np.ptp(pooled["free"]) / self.N_BINS)):
            exact = np.percentile(pooled[name], [25, 50, 75])
            got = [entries[name][q] for q in ("q1", "q2", "q3")]
            assert got == pytest.approx(exact, abs=width), name
        range_steps = [n for n in plan["nodes"]
                       if n.get("udf", "").endswith("observed_range_local")]
        assert len(range_steps) == 1
        assert range_steps[0]["args"]["variables"] == {"literal": ["free"]}

    def test_declared_ranges_take_no_extra_step(self, toy):
        federation, _ = toy
        _, plan = self.run(federation, "plain", ["bounded"])
        assert [n["udf"] for n in plan["nodes"] if n["kind"] == "local_step"] == [
            "repro_algorithms_descriptive_descriptive_local",
            "repro_algorithms_descriptive_descriptive_pooled_local",
        ]

    def test_secure_rounding_of_the_extremes_drops_no_row(self, toy, monkeypatch):
        """The secure min/max are fixed-point roundings of the true extremes;
        the grid is one fixed-point unit wider, so every row is binned."""
        from repro.algorithms.descriptive import DescriptiveStatistics

        federation, pooled = toy
        seen = {}
        assemble = DescriptiveStatistics._assemble_pooled

        def spy(variables, aggregates, n_bins, metadata):
            seen.update(aggregates=aggregates, metadata=metadata)
            return assemble(variables, aggregates, n_bins, metadata)

        monkeypatch.setattr(DescriptiveStatistics, "_assemble_pooled", staticmethod(spy))
        self.run(federation, "smpc", ["free"])
        assert int(np.sum(seen["aggregates"]["free__hist"])) == 1000
        assert seen["metadata"]["free"]["min"] < pooled["free"].min()
        assert seen["metadata"]["free"]["max"] > pooled["free"].max()

    @pytest.mark.parametrize("aggregation", ["plain", "smpc"])
    def test_histogram_bins_every_row(self, monkeypatch, aggregation):
        """``histogram`` resolves the range the same way.  On cohort seeds 1
        and 3 the secure minimum rounds *above* the true one (0.02056885 for
        0.02056843), and a grid starting there dropped one row in 1 000."""
        for cohort_seed in range(5):
            with self.toy_federation(monkeypatch, cohort_seed) as (federation, pooled):
                result, _ = self.run(
                    federation, aggregation, ["free"], algorithm="histogram", n_bins=20
                )
            assert result["histograms"]["all"]["total"] == 1000, cohort_seed
            assert result["edges"][0] <= pooled["free"].min(), cohort_seed
            assert result["edges"][-1] >= pooled["free"].max(), cohort_seed
