"""Reproduction of *MIP: Advanced Data Processing and Analytics for Science
and Medicine* (EDBT 2024).

A privacy-preserving federated analytics platform: hospitals keep their data
inside a local analytics engine; algorithms ship to the data as generated
SQL UDFs; only aggregates leave a node — through non-secure remote/merge
tables or a secure multi-party computation cluster.

Quickstart::

    from repro import CohortSpec, FederationConfig, MIPService
    from repro import create_federation, generate_cohort

    federation = create_federation({
        "hospital_a": {"dementia": generate_cohort(CohortSpec("edsd", 500, seed=1))},
        "hospital_b": {"dementia": generate_cohort(CohortSpec("adni", 400, seed=2))},
    })
    mip = MIPService(federation)
    result = mip.run_experiment(
        algorithm="linear_regression",
        data_model="dementia",
        datasets=["edsd", "adni"],
        y=["lefthippocampus"],
        x=["agevalue", "alzheimerbroadcategory"],
    )
    print(result.result["coefficients"])
"""

from repro.api.service import MIPService
from repro.api.workflow import Workflow, WorkflowStep
from repro.core.experiment import ExperimentRequest, ExperimentResult
from repro.core.registry import algorithm_registry
from repro.data.cohorts import (
    CohortSpec,
    alzheimers_use_case_cohorts,
    generate_cohort,
    generate_synthetic_hospital,
)
from repro.federation.controller import Federation, FederationConfig, create_federation
from repro.federation.policy import FailurePolicy
from repro.smpc.cluster import NoiseSpec, SMPCCluster

__version__ = "1.0.0"

__all__ = [
    "CohortSpec",
    "ExperimentRequest",
    "ExperimentResult",
    "FailurePolicy",
    "Federation",
    "FederationConfig",
    "MIPService",
    "NoiseSpec",
    "SMPCCluster",
    "Workflow",
    "WorkflowStep",
    "algorithm_registry",
    "alzheimers_use_case_cohorts",
    "create_federation",
    "generate_cohort",
    "generate_synthetic_hospital",
    "__version__",
]
