"""The federated algorithm framework (the paper's primary contribution).

An algorithm is written in three blocks (paper §2, *Federated Algorithm*):

(a) **local computation steps** — ``@udf``-decorated functions that run on
    worker nodes and can read primary data,
(b) **the algorithm flow** — a subclass of :class:`FederatedAlgorithm` whose
    ``run`` method orchestrates execution with ``local_run`` / ``global_run``
    (the paper's Figure 2 API), and
(c) **the algorithm specifications** — typed parameter declarations that the
    platform validates before execution.

Local results are kept as *pointers* (table handles) on the node that
produced them; only transfers (aggregates) move, via the plain remote/merge
path or the SMPC cluster.
"""

from repro.core.algorithm import FederatedAlgorithm
from repro.core.context import DataView, ExecutionContext
from repro.core.experiment import ExperimentEngine, ExperimentRequest, ExperimentResult
from repro.core.registry import algorithm_registry, register_algorithm
from repro.core.specs import ParameterSpec, validate_parameters
from repro.core.state import GlobalHandle, LocalHandle

__all__ = [
    "DataView",
    "ExecutionContext",
    "ExperimentEngine",
    "ExperimentRequest",
    "ExperimentResult",
    "FederatedAlgorithm",
    "GlobalHandle",
    "LocalHandle",
    "ParameterSpec",
    "algorithm_registry",
    "register_algorithm",
    "validate_parameters",
]
