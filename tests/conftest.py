"""Shared fixtures: small federations and cohorts sized for fast tests."""

from __future__ import annotations

import os
import threading

import pytest

from repro.data.cohorts import CohortSpec, generate_cohort
from repro.federation.controller import FederationConfig, create_federation

import repro.algorithms  # noqa: F401  (register algorithms once)

# ----------------------------------------------------------- hypothesis setup
# Profiles are selected with HYPOTHESIS_PROFILE (the tests lane pins "ci",
# the determinism lane "determinism").  ``ci`` derandomizes so a red CI run
# is reproducible from the printed blob; ``determinism`` does the same and
# multiplies the budget of the generated suites that pin a small tier-1 one
# (they read EXAMPLE_SCALE); ``dev`` keeps Hypothesis' default randomized
# exploration for local runs.
HYPOTHESIS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "dev")
EXAMPLE_SCALE = 10 if HYPOTHESIS_PROFILE == "determinism" else 1
try:
    from hypothesis import settings

    settings.register_profile("ci", derandomize=True, print_blob=True)
    settings.register_profile("determinism", derandomize=True, print_blob=True)
    settings.register_profile("dev")
    settings.load_profile(HYPOTHESIS_PROFILE)
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    pass


@pytest.fixture(scope="session", autouse=True)
def thread_leak_detector():
    """Fail the session when tests leave non-daemon threads *held* alive.

    Queue workers and simulation tasks are daemon threads by design; the
    transport's fan-out pools are non-daemon ``ThreadPoolExecutor`` workers
    that exit once their executor is collected.  So after a GC pass and a
    drain window, any non-daemon survivor is a thread some live object still
    pins — a leak that would stall interpreter shutdown.
    """
    import gc
    import time

    before = {t.ident for t in threading.enumerate()}

    def survivors():
        return [
            thread
            for thread in threading.enumerate()
            if thread.ident not in before
            and thread.is_alive()
            and not thread.daemon
            and thread is not threading.current_thread()
        ]

    yield
    deadline = time.monotonic() + 15.0
    leaked = survivors()
    while leaked and time.monotonic() < deadline:
        gc.collect()  # wakes idle pool workers via the executor's weakref
        time.sleep(0.1)
        leaked = survivors()
    assert not leaked, (
        "tests leaked non-daemon threads: "
        + ", ".join(sorted(thread.name for thread in leaked))
    )


def small_worker_data(rows: int = 150):
    """Three hospitals, one dataset each."""
    return {
        "hospital_a": {"dementia": generate_cohort(CohortSpec("edsd", rows, seed=11))},
        "hospital_b": {"dementia": generate_cohort(CohortSpec("adni", rows, seed=22))},
        "hospital_c": {"dementia": generate_cohort(CohortSpec("ppmi", rows, seed=33))},
    }


@pytest.fixture(scope="session")
def worker_data():
    return small_worker_data()


@pytest.fixture(scope="session")
def federation(worker_data):
    """A shared federation for read-only experiment tests (plain transport)."""
    federation = create_federation(
        worker_data, FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=101)
    )
    yield federation
    federation.shutdown()


@pytest.fixture()
def fresh_federation(worker_data):
    """A private federation for tests that mutate state or inject failures."""
    federation = create_federation(
        worker_data, FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=202)
    )
    yield federation
    federation.shutdown()


def pooled_rows(worker_data, *columns, data_model: str = "dementia"):
    """Centralized reference: complete-case rows across all workers."""
    rows = []
    for models in worker_data.values():
        table = models[data_model]
        lists = [table.column(c).to_list() for c in columns]
        for row in zip(*lists):
            if None not in row:
                rows.append(row)
    return rows
