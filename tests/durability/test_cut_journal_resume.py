"""Every demo algorithm resumes from a journal cut after any step record.

The journal is the only resume state: a run's read values live in its
``step`` records, so a journal truncated just after one of them (and
before the terminal record) is exactly what a master crash at that point
leaves on disk.  Each demo request runs once, uninterrupted, with a state
directory; journals cut after 0, n // 2 and n of its n step records are then
reopened by fresh services, and each must replay exactly the cut and return
the uninterrupted result.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api.demo import DEMO_REQUESTS, demo_request
from repro.api.service import MIPService
from repro.core.experiment import ExperimentRequest, ExperimentStatus
from repro.federation.controller import FederationConfig, create_federation

from tests.core.test_golden_plans import DATASETS, golden_worker_data

import repro.algorithms  # noqa: F401

JOB = "cut_job"
SEGMENT = os.path.join("journal", "journal-000001.wal")


def _run(state_dir, aggregation: str, request: ExperimentRequest | None):
    """One service life on a fresh golden federation: submit ``request``
    (or only recover, when it is None) and return the job's outcome."""
    federation = create_federation(
        golden_worker_data(),
        FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=0),
    )
    service = MIPService(federation, aggregation=aggregation, state_dir=str(state_dir))
    try:
        if request is not None:
            service.engine.submit(request, experiment_id=JOB)
        return service.wait_experiment(JOB)
    finally:
        service.shutdown()
        federation.shutdown()


def _canonical(result) -> str:
    return json.dumps(result, sort_keys=True, default=str)


@pytest.mark.parametrize("aggregation", ["plain", "smpc"])
@pytest.mark.parametrize("algorithm", sorted(DEMO_REQUESTS))
def test_resume_from_cut_journal(algorithm, aggregation, tmp_path):
    demo = demo_request(algorithm)
    request = ExperimentRequest(
        algorithm=algorithm,
        data_model="dementia",
        datasets=DATASETS,
        y=demo["y"],
        x=demo["x"],
        parameters=demo["parameters"],
    )
    clean = _run(tmp_path / "clean", aggregation, request)
    assert clean.status is ExperimentStatus.SUCCESS, clean.error

    with open(tmp_path / "clean" / SEGMENT, "rb") as handle:
        frames = handle.read().splitlines(keepends=True)
    kinds = [json.loads(frame[9:])["kind"] for frame in frames]
    assert kinds[-1] == "terminal" and "terminal" not in kinds[:-1]
    steps = [position for position, kind in enumerate(kinds) if kind == "step"]
    n = len(steps)
    assert n > 0
    # ends[c]: the journal prefix that holds c step records and no terminal.
    ends = [steps[0]] + [position + 1 for position in steps]

    for cut in sorted({0, n // 2, n}):
        state_dir = tmp_path / f"cut{cut}"
        os.makedirs(state_dir / "journal")
        with open(state_dir / SEGMENT, "wb") as handle:
            handle.write(b"".join(frames[: ends[cut]]))
        resumed = _run(state_dir, aggregation, None)
        (marker,) = [e for e in resumed.audit if e["event"] == "experiment_resumed"]
        assert marker["details"]["checkpoint_reads"] == cut, f"cut {cut} of {n}"
        assert resumed.status is ExperimentStatus.SUCCESS, (cut, resumed.error)
        assert _canonical(resumed.result) == _canonical(clean.result), f"cut {cut} of {n}"
