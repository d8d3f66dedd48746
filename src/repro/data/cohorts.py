"""Synthetic cohort generation (the stand-in for hospital data).

Each cohort is a draw from an explicit generative model of the dementia data
model: diagnosis mixes per cohort, per-diagnosis brain-volume and biomarker
distributions (AD: atrophic hippocampus/entorhinal cortex, enlarged
ventricles, low Abeta42, high pTau), correlated bilateral volumes, PSY/VA
etiology effects, survival times with diagnosis-dependent hazards, and a
deliberately miscalibrated risk score for the calibration-belt algorithm.

The marginals are tuned to the dashboard statistics visible in the paper's
Figure 3 (e.g. left entorhinal area mean ~1.53 cm3, lateral ventricle mean
~0.86 with long right tail, ~8% missingness on CSF biomarkers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.engine.column import Column
from repro.engine.table import ColumnSpec, Schema, Table
from repro.engine.types import SQLType
from repro.errors import SpecificationError
from repro.observability.log import get_logger

logger = get_logger("data.cohorts")

#: Per-diagnosis generative parameters: mean shifts in units of each block.
_DIAGNOSIS_PROFILE = {
    #           hip    ent    vent   amyg   mmse   ab42    ptau   hazard
    "CN":  dict(hip=3.6, ent=1.75, vent=0.70, amyg=1.45, mmse=28.5, ab42=1050.0, ptau=35.0, hazard=0.002),
    "MCI": dict(hip=3.1, ent=1.50, vent=0.90, amyg=1.25, mmse=26.0, ab42=800.0, ptau=55.0, hazard=0.012),
    "AD":  dict(hip=2.5, ent=1.15, vent=1.20, amyg=1.00, mmse=20.0, ab42=550.0, ptau=85.0, hazard=0.035),
    "Other": dict(hip=3.3, ent=1.60, vent=0.85, amyg=1.30, mmse=25.0, ab42=900.0, ptau=45.0, hazard=0.008),
}


@dataclass(frozen=True)
class CohortSpec:
    """Parameters for one synthetic dataset."""

    name: str
    n_patients: int
    seed: int = 0
    diagnosis_mix: Mapping[str, float] = field(
        default_factory=lambda: {"CN": 0.35, "MCI": 0.35, "AD": 0.30}
    )
    na_rate: float = 0.08
    psy_rate: float = 0.15
    va_rate: float = 0.20
    mean_age: float = 71.0

    def __post_init__(self) -> None:
        if self.n_patients < 1:
            raise SpecificationError("a cohort needs at least one patient")
        total = sum(self.diagnosis_mix.values())
        if not 0.999 < total < 1.001:
            raise SpecificationError(f"diagnosis mix must sum to 1, got {total}")
        unknown = set(self.diagnosis_mix) - set(_DIAGNOSIS_PROFILE)
        if unknown:
            raise SpecificationError(f"unknown diagnoses in mix: {sorted(unknown)}")
        if not 0 <= self.na_rate < 1:
            raise SpecificationError("na_rate must be in [0, 1)")


def generate_cohort(spec: CohortSpec) -> Table:
    """Draw one cohort as a dementia data-model table."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_patients
    labels = list(spec.diagnosis_mix)
    probabilities = np.array([spec.diagnosis_mix[label] for label in labels])
    # Label codes: the same draws as choosing the labels themselves.
    diagnosis = rng.choice(len(labels), size=n, p=probabilities)

    age = rng.normal(spec.mean_age, 7.5, n).clip(40, 95)
    gender = rng.choice(2, size=n, p=[0.55, 0.45])
    psy = rng.random(n) < spec.psy_rate
    va = rng.random(n) < spec.va_rate

    profile = {key: np.array([_DIAGNOSIS_PROFILE[d][key] for d in labels])[diagnosis]
               for key in ("hip", "ent", "vent", "amyg", "mmse", "ab42", "ptau", "hazard")}

    # A latent per-subject atrophy factor correlates all volumes.
    atrophy = rng.normal(0.0, 1.0, n)
    age_effect = (age - spec.mean_age) * 0.012
    va_effect = np.where(va, 0.12, 0.0)  # vascular damage enlarges ventricles
    psy_effect = np.where(psy, -0.05, 0.0)  # depression slightly lowers volumes

    def volume(base: np.ndarray, scale: float, sign: float = -1.0) -> np.ndarray:
        noise = rng.normal(0.0, scale * 0.5, n)
        return base + sign * scale * (0.35 * atrophy + age_effect) + psy_effect * scale + noise

    left_hip = volume(profile["hip"], 0.45).clip(1.0, 6.0)
    right_hip = (left_hip + rng.normal(0.03, 0.12, n)).clip(1.0, 6.0)
    left_ent = volume(profile["ent"], 0.23).clip(0.5, 3.5)
    right_ent = (left_ent + rng.normal(0.02, 0.08, n)).clip(0.5, 3.5)
    left_amyg = volume(profile["amyg"], 0.18).clip(0.4, 2.5)
    right_amyg = (left_amyg + rng.normal(0.01, 0.06, n)).clip(0.4, 2.5)
    left_vent = (
        profile["vent"] * np.exp(rng.normal(0.0, 0.35, n)) + va_effect + 0.10 * np.maximum(atrophy, 0)
    ).clip(0.3, 9.0)
    right_vent = (left_vent * np.exp(rng.normal(0.0, 0.12, n))).clip(0.3, 9.0)
    brainstem = rng.normal(21.5, 2.0, n).clip(15, 30)
    csf_global = rng.normal(1.4, 0.3, n).clip(0.5, 3.0)

    mmse = (profile["mmse"] + 1.5 * (left_hip - profile["hip"]) + rng.normal(0, 1.8, n)).clip(0, 30)
    ab42 = (profile["ab42"] + rng.normal(0.0, 140.0, n)).clip(100, 2000)
    ptau = (profile["ptau"] * np.exp(rng.normal(0.0, 0.25, n))).clip(5, 200)

    # Survival: exponential conversion times with diagnosis-dependent hazard,
    # administratively censored at a uniform follow-up horizon.
    conversion = rng.exponential(1.0 / profile["hazard"]).clip(0.5, None)
    follow_up = rng.uniform(12.0, 120.0, n)
    observed = conversion <= follow_up
    survival = np.minimum(conversion, follow_up).clip(0.0, 200.0)
    converted = observed.astype(np.int64)

    # A miscalibrated risk model (overconfident): true logit scaled by 1.6.
    # Depends on the *individual* biomarker values so conditional effects are
    # identifiable in regressions.
    true_logit = (
        -1.0 + 1.8 * (ptau / 85.0 - 0.6) - 1.6 * (left_hip - 3.0)
    )
    true_probability = 1.0 / (1.0 + np.exp(-true_logit))
    converted_model = (rng.random(n) < true_probability).astype(np.int64)
    predicted = 1.0 / (1.0 + np.exp(-1.6 * true_logit))
    predicted = predicted.clip(0.001, 0.999)

    def with_na(values: np.ndarray, rate: float) -> Column:
        # The mask is drawn here, so the columns below keep their draw order.
        return _column(SQLType.REAL, values, rng.random(n) < rate)

    table = _table({
        "dataset": Column.from_codes(np.zeros(n, dtype=np.int32), [spec.name]),
        "alzheimerbroadcategory": Column.from_codes(diagnosis, labels),
        "gender": Column.from_codes(gender, ["F", "M"]),
        "psy_etiology": Column.from_codes(psy, ["no", "yes"]),
        "va_etiology": Column.from_codes(va, ["no", "yes"]),
        "agevalue": _column(SQLType.REAL, age),
        "subjectage": _column(SQLType.REAL, age),
        "minimentalstate": with_na(mmse, spec.na_rate / 2),
        "p_tau": with_na(ptau, spec.na_rate),
        "ab_42": with_na(ab42, spec.na_rate),
        "righthippocampus": _column(SQLType.REAL, right_hip),
        "lefthippocampus": _column(SQLType.REAL, left_hip),
        "rightententorhinalarea": with_na(right_ent, spec.na_rate),
        "leftententorhinalarea": with_na(left_ent, spec.na_rate),
        "rightlateralventricle": _column(SQLType.REAL, right_vent),
        "leftlateralventricle": _column(SQLType.REAL, left_vent),
        "rightamygdala": _column(SQLType.REAL, right_amyg),
        "leftamygdala": _column(SQLType.REAL, left_amyg),
        "brainstem": _column(SQLType.REAL, brainstem),
        "csfglobal": _column(SQLType.REAL, csf_global),
        "survival_months": _column(SQLType.REAL, survival),
        "event_observed": _column(SQLType.INT, converted),
        "predicted_risk": _column(SQLType.REAL, predicted),
        "converted_ad": _column(SQLType.INT, converted_model),
    })
    logger.debug(
        "cohort_generated",
        dataset=spec.name,
        patients=n,
        seed=spec.seed,
        na_rate=spec.na_rate,
    )
    return table


def _column(sql_type: SQLType, values: np.ndarray, na: np.ndarray | None = None) -> Column:
    """One numeric cohort column from a drawn array; ``na`` marks the missing
    cells.  Built whole, with the 0.0 placeholder under NULLs that the
    per-value builder stores.

    The column takes the drawn array itself: the generator owns it and
    never writes it again, so the defensive copy ``Column.from_numpy``
    makes is not needed.  A NaN still becomes a NULL.
    """
    nulls = np.zeros(len(values), dtype=bool) if na is None else na
    if na is not None:
        values = np.where(na, 0.0, values)
    values = values.astype(sql_type.numpy_dtype, copy=False)
    if sql_type == SQLType.REAL:
        nan = np.isnan(values)
        if nan.any():
            nulls = nulls | nan
            values = np.where(nan, 0.0, values)
    return Column(sql_type, values, nulls)


def _table(columns: Mapping[str, Column]) -> Table:
    specs = [ColumnSpec(name, column.sql_type) for name, column in columns.items()]
    return Table(Schema(specs), list(columns.values()))


def generate_synthetic_hospital(specs: Sequence[CohortSpec]) -> Table:
    """One hospital's data-model table holding several datasets."""
    if not specs:
        raise SpecificationError("a hospital needs at least one cohort")
    tables = [generate_cohort(spec) for spec in specs]
    result = tables[0]
    for table in tables[1:]:
        result = result.concat(table)
    return result


def generate_epilepsy_cohort(name: str, n_patients: int, seed: int = 0) -> Table:
    """A synthetic intracerebral-EEG cohort for the epilepsy data model.

    Focal epilepsy carries higher spike/HFO rates and a better surgical
    outcome when the seizure-onset zone is compact — the signals a surgical
    outcome analysis (logistic regression / CART) should find.
    """
    if n_patients < 1:
        raise SpecificationError("a cohort needs at least one patient")
    rng = np.random.default_rng(seed)
    n = n_patients
    epilepsy_type = rng.choice(3, n, p=[0.6, 0.3, 0.1])
    focal = epilepsy_type == 0
    gender = rng.choice(2, n)
    onset = rng.gamma(3.0, 5.0, n).clip(0, 80)
    duration = rng.gamma(2.0, 6.0, n).clip(0, 60)
    frequency = rng.lognormal(1.5, 1.0, n).clip(0, 300)
    spike_rate = (rng.gamma(2.0, 8.0, n) + np.where(focal, 10.0, 0.0)).clip(0, 120)
    hfo = (0.3 * spike_rate + rng.gamma(1.5, 3.0, n)).clip(0, 60)
    soz = (rng.poisson(6, n) + np.where(focal, 2, 6)).clip(0, 40).astype(float)
    # compact SOZ + focal type predict seizure freedom
    outcome_logit = 1.0 + 1.2 * focal.astype(float) - 0.18 * soz - 0.01 * duration
    seizure_free = rng.random(n) < 1 / (1 + np.exp(-outcome_logit))
    return _table({
        "dataset": Column.from_codes(np.zeros(n, dtype=np.int32), [name]),
        "epilepsy_type": Column.from_codes(epilepsy_type, ["focal", "generalized", "unknown"]),
        "gender": Column.from_codes(gender, ["F", "M"]),
        "surgery_outcome": Column.from_codes(seizure_free, ["not_seizure_free", "seizure_free"]),
        "onset_age": _column(SQLType.REAL, onset),
        "seizure_frequency": _column(SQLType.REAL, frequency),
        "ieeg_spike_rate": _column(SQLType.REAL, spike_rate),
        "hfo_rate": _column(SQLType.REAL, hfo),
        "soz_channels": _column(SQLType.REAL, soz),
        "duration_years": _column(SQLType.REAL, duration),
    })


def alzheimers_use_case_cohorts(seed: int = 2024) -> dict[str, Table]:
    """The paper's Alzheimer's use case: four centers, one cohort each.

    "the MIP combines data from memory clinics in Brescia (1960 patients),
    Lausanne (1032 patients), and Lille (1103 patients), as well as the
    reference dataset ADNI (1066 patients)."
    """
    specs = {
        "hospital_brescia": CohortSpec(
            "brescia", 1960, seed=seed + 1,
            diagnosis_mix={"CN": 0.25, "MCI": 0.40, "AD": 0.35},
        ),
        "hospital_lausanne": CohortSpec(
            "lausanne", 1032, seed=seed + 2,
            diagnosis_mix={"CN": 0.30, "MCI": 0.40, "AD": 0.30},
        ),
        "hospital_lille": CohortSpec(
            "lille", 1103, seed=seed + 3,
            diagnosis_mix={"CN": 0.35, "MCI": 0.35, "AD": 0.30},
        ),
        "hospital_adni": CohortSpec(
            "adni", 1066, seed=seed + 4,
            diagnosis_mix={"CN": 0.40, "MCI": 0.35, "AD": 0.25},
        ),
    }
    return {worker: generate_cohort(spec) for worker, spec in specs.items()}
