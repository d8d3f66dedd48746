"""Synthetic cohort generation: shapes, signals, reproducibility."""

import hashlib
import json

import numpy as np
import pytest

from repro.data.cdes import dementia_data_model
from repro.data.cohorts import (
    CohortSpec,
    alzheimers_use_case_cohorts,
    generate_cohort,
    generate_epilepsy_cohort,
    generate_synthetic_hospital,
)
from repro.engine.column import Column
from repro.engine.types import SQLType
from repro.errors import SpecificationError


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(CohortSpec("edsd", 800, seed=42))


def by_diagnosis(cohort, variable):
    diagnosis = cohort.column("alzheimerbroadcategory").to_list()
    values = cohort.column(variable).to_list()
    groups = {}
    for d, v in zip(diagnosis, values):
        if v is not None:
            groups.setdefault(d, []).append(v)
    return {k: np.array(v) for k, v in groups.items()}


class TestSpecValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(SpecificationError):
            CohortSpec("x", 10, diagnosis_mix={"CN": 0.5})

    def test_unknown_diagnosis(self):
        with pytest.raises(SpecificationError):
            CohortSpec("x", 10, diagnosis_mix={"CN": 0.5, "ALIEN": 0.5})

    def test_positive_size(self):
        with pytest.raises(SpecificationError):
            CohortSpec("x", 0)

    def test_na_rate_range(self):
        with pytest.raises(SpecificationError):
            CohortSpec("x", 10, na_rate=1.0)


class TestGeneratedShape:
    def test_row_count_and_dataset_column(self, cohort):
        assert cohort.num_rows == 800
        assert set(cohort.column("dataset").to_list()) == {"edsd"}

    def test_schema_matches_data_model(self, cohort):
        model = dementia_data_model()
        for spec in cohort.schema:
            assert spec.name in model.cdes
            assert spec.sql_type == model.cde(spec.name).sql_type

    def test_reproducible(self):
        a = generate_cohort(CohortSpec("edsd", 50, seed=7))
        b = generate_cohort(CohortSpec("edsd", 50, seed=7))
        assert a.to_rows() == b.to_rows()

    def test_different_seeds_differ(self):
        a = generate_cohort(CohortSpec("edsd", 50, seed=7))
        b = generate_cohort(CohortSpec("edsd", 50, seed=8))
        assert a.to_rows() != b.to_rows()

    def test_na_rate_approximate(self, cohort):
        ptau = cohort.column("p_tau")
        rate = ptau.null_count / len(ptau)
        assert 0.04 < rate < 0.14

    def test_values_within_cde_ranges(self, cohort):
        model = dementia_data_model()
        for code in ("lefthippocampus", "p_tau", "ab_42", "minimentalstate"):
            cde = model.cde(code)
            values = cohort.column(code).non_null()
            assert values.min() >= cde.min_value
            assert values.max() <= cde.max_value


class TestClinicalSignals:
    """The generative model must carry the use case's signals."""

    def test_hippocampal_atrophy_ordering(self, cohort):
        groups = by_diagnosis(cohort, "lefthippocampus")
        assert groups["CN"].mean() > groups["MCI"].mean() > groups["AD"].mean()

    def test_biomarker_separation(self, cohort):
        ab42 = by_diagnosis(cohort, "ab_42")
        ptau = by_diagnosis(cohort, "p_tau")
        assert ab42["CN"].mean() > ab42["AD"].mean()
        assert ptau["AD"].mean() > ptau["CN"].mean()

    def test_ventricle_enlargement(self, cohort):
        groups = by_diagnosis(cohort, "leftlateralventricle")
        assert groups["AD"].mean() > groups["CN"].mean()

    def test_bilateral_correlation(self, cohort):
        left = np.array(cohort.column("lefthippocampus").to_list())
        right = np.array(cohort.column("righthippocampus").to_list())
        assert np.corrcoef(left, right)[0, 1] > 0.9

    def test_ad_converts_faster(self, cohort):
        events = by_diagnosis(cohort, "event_observed")
        assert events["AD"].mean() > events["CN"].mean()

    def test_risk_score_discriminates(self, cohort):
        risk = np.array(cohort.column("predicted_risk").to_list())
        converted = np.array(cohort.column("converted_ad").to_list())
        assert risk[converted == 1].mean() > risk[converted == 0].mean()


class TestHospitalAndUseCase:
    def test_multi_dataset_hospital(self):
        table = generate_synthetic_hospital(
            [CohortSpec("edsd", 30, seed=1), CohortSpec("adni", 20, seed=2)]
        )
        assert table.num_rows == 50
        assert set(table.column("dataset").to_list()) == {"edsd", "adni"}

    def test_empty_hospital_rejected(self):
        with pytest.raises(SpecificationError):
            generate_synthetic_hospital([])

    def test_use_case_sizes_match_paper(self):
        cohorts = alzheimers_use_case_cohorts()
        sizes = {worker: table.num_rows for worker, table in cohorts.items()}
        # Paper: Brescia 1960, Lausanne 1032, Lille 1103, ADNI 1066
        assert sizes == {
            "hospital_brescia": 1960,
            "hospital_lausanne": 1032,
            "hospital_lille": 1103,
            "hospital_adni": 1066,
        }


def _digest(table) -> str:
    payload = [[s.name, s.sql_type.value] for s in table.schema], [list(r) for r in table.to_rows()]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


class TestColumnarBuild:
    """The cohorts are built column-at-a-time from the drawn arrays; they must
    equal, cell for cell, what the per-value list builder produced."""

    #: seed -> (generate_cohort("edsd", 300), generate_epilepsy_cohort("epi", 200)),
    #: recorded from the list-path generators before they went columnar.
    LIST_PATH_DIGESTS = {
        0: ("4d7f4df291c99d52", "24877dc205581b1e"),
        7: ("83ba9cb8351d85e8", "d97db34ac8b89454"),
        2024: ("b81351125350eecb", "dfc88908feadc17e"),
    }

    @pytest.mark.parametrize("seed", sorted(LIST_PATH_DIGESTS))
    def test_same_draws_as_the_list_path(self, seed):
        dementia, epilepsy = self.LIST_PATH_DIGESTS[seed]
        assert _digest(generate_cohort(CohortSpec("edsd", 300, seed=seed))) == dementia
        assert _digest(generate_epilepsy_cohort("epi", 200, seed=seed)) == epilepsy

    @pytest.mark.parametrize("seed", sorted(LIST_PATH_DIGESTS))
    def test_columns_equal_a_list_path_rebuild(self, seed):
        tables = (
            generate_cohort(CohortSpec("edsd", 300, seed=seed)),
            generate_epilepsy_cohort("epi", 200, seed=seed),
        )
        for table in tables:
            for spec in table.schema:
                built = table.column(spec.name)
                rebuilt = Column.from_values(spec.sql_type, built.to_list())
                assert built.sql_type == rebuilt.sql_type == spec.sql_type
                assert built.values.dtype == rebuilt.values.dtype
                # placeholders under NULLs included: the wire ships ``values`` whole
                assert np.array_equal(built.values, rebuilt.values), spec.name
                assert np.array_equal(built.nulls, rebuilt.nulls), spec.name
                if spec.sql_type == SQLType.VARCHAR:
                    assert {type(v) for v in built.values} == {str}
        assert tables[0].column("p_tau").null_count > 0
