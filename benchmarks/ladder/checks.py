"""Output checks: the repository's three equalities, cheaply.

*federated == centralized*: four algorithms are compared with a pooled numpy
reference computed from the very tables the benchmark generated.
*secure == plain*: the other four are compared with one plain run.
*resumed == uninterrupted*: the durable workload reopens its state directory
and every acknowledged experiment must come back with an identical result.
Within a run, every later cycle must equal the first for the same request.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Iterable

import numpy as np

from benchmarks.ladder import workloads
from benchmarks.ladder.workloads import REQUESTS, Workload

#: Plain aggregation sums float64 in a different order than numpy does.
PLAIN_TOLERANCE = dict(rel=1e-6, abs_tol=1e-9)
#: Secure aggregation rounds every shared element to 2^-16 (E4's fixed-point
#: encoding); statistics derived from the sums amplify that to about 1e-4.
SECURE_TOLERANCE = dict(rel=1e-3, abs_tol=1e-3)

def tolerance_for(aggregation: str) -> dict[str, float]:
    return SECURE_TOLERANCE if aggregation == "smpc" else PLAIN_TOLERANCE


def canonical(result: dict[str, Any]) -> str:
    return json.dumps(result, sort_keys=True)


def mismatches(
    actual: Any, expected: Any, rel: float, abs_tol: float, path: str = "result"
) -> list[str]:
    """Where ``actual`` departs from ``expected`` (keys of ``expected`` only)."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected a mapping"]
        found: list[str] = []
        for key, value in expected.items():
            if key not in actual:
                found.append(f"{path}.{key}: missing")
            else:
                found += mismatches(actual[key], value, rel, abs_tol, f"{path}.{key}")
        return found
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        found = []
        for index, (a, e) in enumerate(zip(actual, expected)):
            found += mismatches(a, e, rel, abs_tol, f"{path}[{index}]")
        return found
    if isinstance(expected, float):
        if isinstance(actual, (int, float)) and math.isclose(
            actual, expected, rel_tol=rel, abs_tol=abs_tol
        ):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


# ------------------------------------------------------- pooled references


def _pooled(tables: dict[str, Any], names: Iterable[str]) -> dict[str, np.ndarray]:
    return {
        name: np.concatenate(
            [table.column(name).to_numpy() for table in tables.values()]
        )
        for name in names
    }


def _complete_cases(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    keep = np.ones(len(next(iter(columns.values()))), dtype=bool)
    for values in columns.values():
        if values.dtype.kind == "f":
            keep &= ~np.isnan(values)
        else:
            keep &= np.array([v is not None for v in values])
    return {name: values[keep] for name, values in columns.items()}


def _reference_descriptive(tables, request, _result) -> dict[str, Any]:
    pooled = {}
    for name, values in _pooled(tables, request["y"]).items():
        present = values[~np.isnan(values)]
        pooled[name] = {
            "count": len(values),
            "datapoints": len(present),
            "na": len(values) - len(present),
            "mean": float(present.mean()),
            "std": float(present.std(ddof=1)),
            "min": float(present.min()),
            "max": float(present.max()),
        }
    return {"pooled": pooled}


def _reference_linear_regression(tables, request, result) -> dict[str, Any]:
    data = _complete_cases(_pooled(tables, request["y"] + request["x"]))
    columns = []
    # The design's dummy coding is read off the result's own term names.
    for term in result["variable_names"]:
        if term == "intercept":
            columns.append(np.ones(len(data[request["y"][0]])))
        elif term.endswith("]"):
            variable, level = term[:-1].split("[")
            columns.append((data[variable] == level).astype(float))
        else:
            columns.append(data[term].astype(float))
    design = np.column_stack(columns)
    response = data[request["y"][0]].astype(float)
    beta, *_ = np.linalg.lstsq(design, response, rcond=None)
    residual = response - design @ beta
    total = response - response.mean()
    return {
        "coefficients": [float(b) for b in beta],
        "n_observations": len(response),
        "r_squared": float(1.0 - (residual @ residual) / (total @ total)),
    }


def _reference_pca(tables, request, _result) -> dict[str, Any]:
    data = _complete_cases(_pooled(tables, request["y"]))
    matrix = np.column_stack([data[name] for name in request["y"]])
    eigenvalues = np.linalg.eigvalsh(np.corrcoef(matrix, rowvar=False))[::-1]
    return {
        "n_observations": len(matrix),
        "means": [float(v) for v in matrix.mean(axis=0)],
        "stds": [float(v) for v in matrix.std(axis=0, ddof=1)],
        "eigenvalues": [float(v) for v in eigenvalues],
    }


def _reference_pearson(tables, request, _result) -> dict[str, Any]:
    data = _complete_cases(_pooled(tables, request["y"]))
    matrix = np.column_stack([data[name] for name in request["y"]])
    return {
        "n_observations": len(matrix),
        "correlations": [
            [float(v) for v in row] for row in np.corrcoef(matrix, rowvar=False)
        ],
    }


#: Algorithms compared with a pooled numpy reference; the rest are compared
#: with a plain run where the workload aggregates securely.
_REFERENCES = {
    "descriptive_stats": _reference_descriptive,
    "linear_regression": _reference_linear_regression,
    "pca": _reference_pca,
    "pearson_correlation": _reference_pearson,
}


def pooled_reference(tables, key: str, result: dict[str, Any]) -> dict[str, Any]:
    request = REQUESTS[key]
    return _REFERENCES[request["algorithm"]](tables, request, result)


# ------------------------------------------------------------ window check


def check_window(
    workload: Workload, tables, plain_results: dict[str, dict], samples
) -> dict[str, list[str]]:
    """What is wrong with the window's outputs, by job id; empty if nothing.

    ``plain_results`` holds one plain run of each request that has no numpy
    reference (only needed when the workload aggregates securely).
    """
    tolerance = tolerance_for(workload.aggregation)
    failures: dict[str, list[str]] = {}
    first: dict[str, str] = {}
    for sample in samples:
        outcome = sample.outcome
        where = f"cycle {sample.cycle} {sample.key}"
        if outcome.status.value != "success":
            failures[sample.job_id] = [
                f"{where}: {outcome.status.value}: {outcome.error}"
            ]
            continue
        if sample.key in first:
            if canonical(outcome.result) != first[sample.key]:
                failures[sample.job_id] = [
                    f"{where}: differs from the first cycle's result"
                ]
            continue
        first[sample.key] = canonical(outcome.result)
        if REQUESTS[sample.key]["algorithm"] in _REFERENCES:
            expected = pooled_reference(tables, sample.key, outcome.result)
        elif sample.key in plain_results:
            expected = plain_results[sample.key]
        else:
            continue
        missed = mismatches(outcome.result, expected, **tolerance)
        if missed:
            failures[sample.job_id] = [f"{where}: {miss}" for miss in missed]
    return failures


def needs_plain_run(workload: Workload) -> list[str]:
    if workload.aggregation != "smpc":
        return []
    return [
        key
        for key in workload.cycle
        if REQUESTS[key]["algorithm"] not in _REFERENCES
    ]


# ------------------------------------------------------------- durability


def check_recovery(
    workload: Workload, seed: int, state_dir: str, acknowledged: dict[str, str]
) -> tuple[float, float, dict[str, str]]:
    """Reopen ``state_dir`` on a fresh federation of the same seed.

    ``acknowledged`` maps every job id a ``wait_experiment`` returned to its
    canonical result.  Returns ``(restored fraction, recovery seconds,
    what went wrong by job id)``.
    """
    tables = workloads.generate_tables(workload, seed)
    federation = workloads.build_federation(workload, tables, seed)
    started = time.perf_counter()
    service = workloads.build_service(workload, federation, state_dir)
    recover_seconds = time.perf_counter() - started
    lost: dict[str, str] = {}
    try:
        restored = {
            outcome.experiment_id: outcome for outcome in service.experiments()
        }
        for job_id, expected in acknowledged.items():
            outcome = restored.get(job_id)
            if outcome is None:
                lost[job_id] = "not restored after reopening the state directory"
            elif canonical(outcome.result) != expected:
                lost[job_id] = "restored with a different result"
    finally:
        service.shutdown()
        federation.shutdown()
    return 1.0 - len(lost) / len(acknowledged), recover_seconds, lost
