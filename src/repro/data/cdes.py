"""Common Data Elements: the harmonized variable catalogue.

MIP's Data Catalogue describes every variable of a data model — code, label,
SQL type, whether it is nominal, its enumerations and plausible range.  The
CDE metadata drives the UI (variable pickers) and the algorithms (dummy
coding of nominal covariates uses the enumeration list so every worker
encodes identically).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.engine.types import SQLType
from repro.errors import CatalogError, SpecificationError
from repro.observability.log import get_logger

logger = get_logger("data.cdes")


@dataclass(frozen=True)
class CommonDataElement:
    """One harmonized variable."""

    code: str
    label: str
    sql_type: SQLType
    is_categorical: bool = False
    enumerations: tuple[str, ...] = ()
    min_value: float | None = None
    max_value: float | None = None
    unit: str = ""

    def __post_init__(self) -> None:
        if self.is_categorical and not self.enumerations:
            raise SpecificationError(f"nominal CDE {self.code!r} needs enumerations")
        if not self.is_categorical and self.enumerations:
            raise SpecificationError(f"numeric CDE {self.code!r} cannot have enumerations")

    @property
    def kind(self) -> str:
        return "nominal" if self.is_categorical else "numeric"

    def to_metadata(self) -> dict[str, Any]:
        """The per-variable metadata dict handed to algorithms."""
        return {
            "label": self.label,
            "is_categorical": self.is_categorical,
            "enumerations": list(self.enumerations),
            "min": self.min_value,
            "max": self.max_value,
            "sql_type": self.sql_type.value,
        }


@dataclass(frozen=True)
class DataModel:
    """A named, versioned set of CDEs (e.g. 'dementia' v0.1)."""

    name: str
    version: str
    cdes: Mapping[str, CommonDataElement]

    def cde(self, code: str) -> CommonDataElement:
        try:
            return self.cdes[code]
        except KeyError:
            raise CatalogError(
                f"variable {code!r} is not in data model {self.name!r}"
            ) from None

    def variables(self) -> list[str]:
        return sorted(self.cdes)

    def metadata_for(self, codes: Sequence[str]) -> dict[str, dict[str, Any]]:
        return {code: self.cde(code).to_metadata() for code in codes}

    def validate_variables(self, codes: Sequence[str], kinds: Sequence[str]) -> None:
        """Check that variables exist and have one of the accepted kinds."""
        for code in codes:
            cde = self.cde(code)
            if cde.kind not in kinds:
                logger.warning(
                    "variable_kind_rejected",
                    data_model=self.name,
                    variable=code,
                    kind=cde.kind,
                    accepted=list(kinds),
                )
                raise SpecificationError(
                    f"variable {code!r} is {cde.kind}; expected one of {list(kinds)}"
                )


class CDERegistry:
    """All known data models (the platform's Data Catalogue backend)."""

    def __init__(self) -> None:
        self._models: dict[str, DataModel] = {}

    def register(self, model: DataModel, replace: bool = False) -> None:
        if model.name in self._models and not replace:
            raise CatalogError(f"data model {model.name!r} already registered")
        self._models[model.name] = model
        logger.info(
            "data_model_registered",
            data_model=model.name,
            variables=len(model.cdes),
            replace=replace,
        )

    def get(self, name: str) -> DataModel:
        model = self._models.get(name)
        if model is None:
            raise CatalogError(f"no such data model: {name!r}")
        return model

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def names(self) -> list[str]:
        return sorted(self._models)


cde_registry = CDERegistry()


def _numeric(code: str, label: str, low: float, high: float, unit: str = "") -> CommonDataElement:
    return CommonDataElement(
        code, label, SQLType.REAL, min_value=low, max_value=high, unit=unit
    )


def dementia_data_model() -> DataModel:
    """The dementia data model used throughout the paper's examples.

    Variable names follow the MIP dashboard: regional brain volumes from the
    neuromorphometric atlas, CSF biomarkers (Abeta 1-42, pTau), demographics,
    neuropsychology scores and the diagnosis label.
    """
    cdes = [
        CommonDataElement(
            "dataset", "Dataset", SQLType.VARCHAR, is_categorical=True,
            enumerations=("edsd", "adni", "ppmi", "brescia", "lausanne", "lille",
                          "edsd-synthdata", "desd-synthdata"),
        ),
        CommonDataElement(
            "alzheimerbroadcategory", "Alzheimer broad category", SQLType.VARCHAR,
            is_categorical=True, enumerations=("CN", "MCI", "AD", "Other"),
        ),
        CommonDataElement(
            "gender", "Gender", SQLType.VARCHAR, is_categorical=True,
            enumerations=("F", "M"),
        ),
        CommonDataElement(
            "psy_etiology", "Depression etiology (PSY)", SQLType.VARCHAR,
            is_categorical=True, enumerations=("no", "yes"),
        ),
        CommonDataElement(
            "va_etiology", "Vascular white-matter damage (VA)", SQLType.VARCHAR,
            is_categorical=True, enumerations=("no", "yes"),
        ),
        _numeric("agevalue", "Age", 40.0, 95.0, "years"),
        _numeric("subjectage", "Subject age", 40.0, 95.0, "years"),
        _numeric("minimentalstate", "Mini-mental state examination", 0.0, 30.0),
        _numeric("p_tau", "CSF phosphorylated tau", 5.0, 200.0, "pg/mL"),
        _numeric("ab_42", "CSF amyloid beta 1-42", 100.0, 2000.0, "pg/mL"),
        _numeric("righthippocampus", "Right hippocampus volume", 1.0, 6.0, "cm3"),
        _numeric("lefthippocampus", "Left hippocampus volume", 1.0, 6.0, "cm3"),
        _numeric("rightententorhinalarea", "Right entorhinal area volume", 0.5, 3.5, "cm3"),
        _numeric("leftententorhinalarea", "Left entorhinal area volume", 0.5, 3.5, "cm3"),
        _numeric("rightlateralventricle", "Right lateral ventricle volume", 0.3, 9.0, "cm3"),
        _numeric("leftlateralventricle", "Left lateral ventricle volume", 0.3, 9.0, "cm3"),
        _numeric("rightamygdala", "Right amygdala volume", 0.4, 2.5, "cm3"),
        _numeric("leftamygdala", "Left amygdala volume", 0.4, 2.5, "cm3"),
        _numeric("brainstem", "Brainstem volume", 15.0, 30.0, "cm3"),
        _numeric("csfglobal", "Global CSF volume", 0.5, 3.0, "cm3"),
        _numeric("survival_months", "Months of follow-up", 0.0, 200.0, "months"),
        CommonDataElement(
            "event_observed", "Event observed (1) or censored (0)", SQLType.INT,
            min_value=0, max_value=1,
        ),
        _numeric("predicted_risk", "Predicted probability of AD conversion", 0.0, 1.0),
        CommonDataElement(
            "converted_ad", "Converted to AD within follow-up", SQLType.INT,
            min_value=0, max_value=1,
        ),
    ]
    return DataModel("dementia", "0.1", {cde.code: cde for cde in cdes})


def epilepsy_data_model() -> DataModel:
    """The epilepsy data model (the paper lists epilepsy among the
    pathologies MIP serves; variables follow its intracerebral-EEG and
    surgery-outcome theme)."""
    cdes = [
        CommonDataElement(
            "dataset", "Dataset", SQLType.VARCHAR, is_categorical=True,
            enumerations=("chuv_eeg", "niguarda_eeg", "lille_eeg"),
        ),
        CommonDataElement(
            "epilepsy_type", "Epilepsy type", SQLType.VARCHAR, is_categorical=True,
            enumerations=("focal", "generalized", "unknown"),
        ),
        CommonDataElement(
            "gender", "Gender", SQLType.VARCHAR, is_categorical=True,
            enumerations=("F", "M"),
        ),
        CommonDataElement(
            "surgery_outcome", "Engel class I outcome", SQLType.VARCHAR,
            is_categorical=True, enumerations=("seizure_free", "not_seizure_free"),
        ),
        _numeric("onset_age", "Age at onset", 0.0, 80.0, "years"),
        _numeric("seizure_frequency", "Seizures per month", 0.0, 300.0),
        _numeric("ieeg_spike_rate", "Interictal spike rate", 0.0, 120.0, "spikes/min"),
        _numeric("hfo_rate", "High-frequency-oscillation rate", 0.0, 60.0, "events/min"),
        _numeric("soz_channels", "Seizure-onset-zone channel count", 0.0, 40.0),
        _numeric("duration_years", "Epilepsy duration", 0.0, 60.0, "years"),
    ]
    return DataModel("epilepsy", "0.1", {cde.code: cde for cde in cdes})


def ensure_default_models() -> None:
    """Idempotently register the built-in data models."""
    if "dementia" not in cde_registry:
        cde_registry.register(dementia_data_model())
    if "epilepsy" not in cde_registry:
        cde_registry.register(epilepsy_data_model())


ensure_default_models()
