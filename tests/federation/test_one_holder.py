"""A dataset lives on exactly one worker; the master refuses any other layout."""

import pytest

from repro.api.service import MIPService
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.errors import FederationError
from repro.federation import controller
from repro.federation.controller import FederationConfig, create_federation
from repro.federation.master import Master


def test_create_federation_refuses_a_dataset_on_two_workers(monkeypatch):
    built = []

    class RecordingMaster(Master):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(controller, "Master", RecordingMaster)
    with pytest.raises(FederationError, match="edsd") as refused:
        create_federation(
            {
                "hospital_a": {"dementia": generate_cohort(CohortSpec("edsd", 30, seed=1))},
                "hospital_b": {"dementia": generate_cohort(CohortSpec("edsd", 30, seed=2))},
            },
            FederationConfig(seed=3),
        )
    assert "'hospital_a'" in str(refused.value)
    assert "'hospital_b'" in str(refused.value)
    (master,) = built
    (event,) = master.audit.events(event="duplicate_dataset")
    assert event.details == {
        "data_model": "dementia",
        "dataset": "edsd",
        "workers": ["hospital_a", "hospital_b"],
    }


def test_a_second_holder_fails_the_next_experiment_before_any_step(fresh_federation):
    service = MIPService(fresh_federation, aggregation="plain")
    try:
        before = service.run_experiment(
            "ttest_onesample", "dementia", ["edsd"], y=["p_tau"]
        )
        assert before.status.value == "success", before.error
        edsd_holder = fresh_federation.master.refresh_catalog()["dementia"]["edsd"]
        second = next(w for w in sorted(fresh_federation.workers) if w != edsd_holder)
        fresh_federation.workers[second].load_data_model(
            "dementia", generate_cohort(CohortSpec("edsd", 20, seed=9))
        )

        transport = fresh_federation.transport
        kinds = []
        real_send, real_send_many = transport.send, transport.send_many

        def send(sender, receiver, kind, payload=None):
            kinds.append(kind)
            return real_send(sender, receiver, kind, payload)

        def send_many(sender, requests):
            kinds.extend(kind for _receiver, kind, _payload in requests)
            return real_send_many(sender, requests)

        transport.send, transport.send_many = send, send_many
        try:
            after = service.run_experiment(
                "ttest_onesample", "dementia", ["edsd"], y=["p_tau"]
            )
        finally:
            transport.send, transport.send_many = real_send, real_send_many
    finally:
        service.shutdown()

    assert after.status.value == "error"
    assert "'edsd'" in after.error
    assert repr(edsd_holder) in after.error and repr(second) in after.error
    assert "run_udf" not in kinds
    assert set(kinds) == {"list_datasets"}
    refusals = fresh_federation.master.audit.events(event="duplicate_dataset")
    assert [event.details["workers"] for event in refusals] == [[edsd_holder, second]]


def load_second_edsd_holder(federation):
    """Load ``edsd`` onto a worker other than its holder; returns both."""
    holder = federation.master.refresh_catalog()["dementia"]["edsd"]
    second = next(w for w in sorted(federation.workers) if w != holder)
    federation.workers[second].load_data_model(
        "dementia", generate_cohort(CohortSpec("edsd", 20, seed=9))
    )
    return holder, second


def test_status_reports_a_refused_layout(fresh_federation):
    """The health call reports the refused layout instead of raising, and
    still reports the workers, the traffic and the queue."""
    service = MIPService(fresh_federation, aggregation="plain")
    try:
        holder, second = load_second_edsd_holder(fresh_federation)
        status = service.status()
    finally:
        service.shutdown()
    error = status["catalog_error"]
    assert "'edsd'" in error and repr(holder) in error and repr(second) in error
    assert status["data_models"] == {} and status["caseload_rows"] == {}
    assert status["workers"] == {worker: "up" for worker in fresh_federation.workers}
    assert status["transport"]["messages"] > 0
    assert status["queue"]["depth"] == 0


def test_catalogue_answers_refuse_a_second_holder(fresh_federation):
    """The catalogue reads a fresh refresh: after a second holder appears it
    raises the error every experiment gets, not the last map it saw."""
    service = MIPService(fresh_federation, aggregation="plain")
    try:
        assert "edsd" in service.datasets("dementia")
        load_second_edsd_holder(fresh_federation)
        with pytest.raises(FederationError, match="edsd"):
            service.datasets("dementia")
        with pytest.raises(FederationError, match="edsd"):
            service.data_models()
    finally:
        service.shutdown()
