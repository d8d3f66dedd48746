"""E10 — §2: noise injected during the SMPC on released results.

"The engine also supports injecting Laplacian and Gaussian noise during the
SMPC to the result of the computation."  This bench sweeps the noise scale
on a released federated mean and reports the utility cost (absolute error of
the released value vs the exact aggregate) per mechanism — the basic
privacy/utility dial a deployment turns for its most sensitive variables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.federation.controller import FederationConfig, create_federation
from repro.smpc.cluster import NoiseSpec

from benchmarks.conftest import write_report

SCALES = (0.5, 2.0, 8.0)
TRIALS = 8


def build_federation(seed: int):
    return create_federation(
        {
            "h1": {"dementia": generate_cohort(CohortSpec("edsd", 200, seed=1))},
            "h2": {"dementia": generate_cohort(CohortSpec("adni", 200, seed=2))},
        },
        FederationConfig(smpc_scheme="shamir", seed=seed),
    )


def released_mean(federation, noise: NoiseSpec | None, experiment_id: str = "e10") -> float:
    """The released mean; its noise is seeded by the cluster seed and the
    experiment's SMPC job ids, so a fixed ``experiment_id`` reproduces it."""
    engine = ExperimentEngine(federation, aggregation="smpc", noise=noise)
    engine.submit(
        ExperimentRequest(
            algorithm="ttest_onesample", data_model="dementia",
            datasets=("edsd", "adni"), y=("p_tau",), parameters={"mu": 0.0},
        ),
        experiment_id=experiment_id,
    )
    result = engine.wait(experiment_id)
    assert result.status.value == "success", result.error
    return float(result.result["mean"])


def test_benchmark_noisy_release(benchmark):
    federation = build_federation(seed=1)
    benchmark.pedantic(
        released_mean, args=(federation, NoiseSpec("gaussian", 2.0)),
        rounds=3, iterations=1,
    )


def test_report_release_noise_utility():
    exact = released_mean(build_federation(seed=0), noise=None)
    lines = [
        "E10 — noise injected inside the SMPC on released results",
        f"(federated mean of p_tau over 2 hospitals; exact value {exact:.4f}; "
        f"{TRIALS} trials per cell)",
        "",
        f"{'mechanism':<12}{'scale':>8}{'mean |error|':>14}{'max |error|':>13}",
    ]
    for mechanism in ("gaussian", "laplace"):
        for scale in SCALES:
            errors = []
            for trial in range(TRIALS):
                federation = build_federation(seed=100 + trial)
                noisy = released_mean(federation, NoiseSpec(mechanism, scale))
                errors.append(abs(noisy - exact))
            lines.append(
                f"{mechanism:<12}{scale:>8.1f}{np.mean(errors):>14.4f}"
                f"{np.max(errors):>13.4f}"
            )
    lines.append("")
    lines.append("shape: released-value error grows linearly with the noise scale;")
    lines.append("the exact aggregate is recovered when no noise is configured.")
    write_report("e10_released_noise", lines)
    # exact release matches the unnoised mean; noisy ones perturb it
    repeat = released_mean(build_federation(seed=0), noise=None)
    assert repeat == pytest.approx(exact, abs=1e-9)
    small = [abs(released_mean(build_federation(seed=200 + t),
                               NoiseSpec("gaussian", 0.5)) - exact)
             for t in range(4)]
    large = [abs(released_mean(build_federation(seed=300 + t),
                               NoiseSpec("gaussian", 8.0)) - exact)
             for t in range(4)]
    assert np.mean(large) > np.mean(small)
