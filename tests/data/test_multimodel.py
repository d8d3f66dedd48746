"""Multiple pathologies: the epilepsy data model and workers hosting
several data models at once."""

import numpy as np
import pytest

from repro.api.service import MIPService
from repro.data.cdes import cde_registry, epilepsy_data_model
from repro.data.cohorts import CohortSpec, generate_cohort, generate_epilepsy_cohort
from repro.federation.controller import FederationConfig, create_federation


class TestEpilepsyModel:
    def test_registered_by_default(self):
        assert "epilepsy" in cde_registry
        model = cde_registry.get("epilepsy")
        assert "ieeg_spike_rate" in model.cdes
        assert model.cde("surgery_outcome").is_categorical

    def test_cohort_matches_model(self):
        table = generate_epilepsy_cohort("chuv_eeg", 300, seed=4)
        model = epilepsy_data_model()
        for spec in table.schema:
            assert spec.name in model.cdes
        assert table.num_rows == 300

    def test_cohort_carries_surgical_signal(self):
        table = generate_epilepsy_cohort("chuv_eeg", 1500, seed=4)
        soz = np.array(table.column("soz_channels").to_list())
        outcome = np.array(
            [1.0 if v == "seizure_free" else 0.0
             for v in table.column("surgery_outcome").to_list()]
        )
        # compact seizure-onset zones -> better outcomes
        assert soz[outcome == 1].mean() < soz[outcome == 0].mean()


class TestMultiModelFederation:
    @pytest.fixture(scope="class")
    def service(self):
        federation = create_federation(
            {
                "chuv": {
                    "dementia": generate_cohort(CohortSpec("lausanne", 150, seed=1)),
                    "epilepsy": generate_epilepsy_cohort("chuv_eeg", 150, seed=2),
                },
                "niguarda": {
                    "epilepsy": generate_epilepsy_cohort("niguarda_eeg", 150, seed=3),
                },
            },
            FederationConfig(seed=5),
        )
        return MIPService(federation, aggregation="plain")

    def test_catalogue_lists_both_models(self, service):
        assert service.data_models() == ["dementia", "epilepsy"]
        assert service.datasets("epilepsy") == {
            "chuv_eeg": "chuv", "niguarda_eeg": "niguarda",
        }

    def test_experiments_target_their_model(self, service):
        dementia = service.run_experiment(
            "ttest_onesample", "dementia", ["lausanne"], y=["p_tau"],
        )
        assert dementia.status.value == "success"
        epilepsy = service.run_experiment(
            "pearson_correlation", "epilepsy", ["chuv_eeg", "niguarda_eeg"],
            y=["ieeg_spike_rate", "hfo_rate"],
        )
        assert epilepsy.status.value == "success"
        assert epilepsy.result["correlations"][0][1] > 0.5  # by construction

    def test_surgical_outcome_model(self, service):
        result = service.run_experiment(
            "logistic_regression", "epilepsy", ["chuv_eeg", "niguarda_eeg"],
            y=["surgery_outcome"], x=["soz_channels", "epilepsy_type"],
        )
        assert result.status.value == "success"
        names = result.result["variable_names"]
        soz_coef = result.result["coefficients"][names.index("soz_channels")]
        assert soz_coef != 0
        # positive level is 'seizure_free'? enumerations: (seizure_free, not_seizure_free)
        # positive level = second observed level; just check the model separates
        assert result.result["auc"] > 0.55 or result.result["auc"] < 0.45

    def test_wrong_model_variable_rejected(self, service):
        result = service.run_experiment(
            "ttest_onesample", "epilepsy", ["chuv_eeg"], y=["p_tau"],
        )
        assert result.status.value == "error"
