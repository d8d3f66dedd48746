"""The simulation seam: a runtime belongs to the one federation it was
handed to (``create_federation(sim=...)``), and production code never loads
the harness."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap
import threading

import repro
from repro.federation.controller import FederationConfig, create_federation
from repro.simtest import harness
from repro.simtest.harness import SimSpec, run_simulation

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def test_an_experiment_does_not_load_the_harness():
    script = textwrap.dedent(
        """
        import sys
        from repro import CohortSpec, MIPService, create_federation, generate_cohort

        fed = create_federation(
            {"h1": {"dementia": generate_cohort(CohortSpec("edsd", 60, seed=1))}}
        )
        service = MIPService(fed, aggregation="plain")
        out = service.run_experiment(
            "ttest_onesample", "dementia", ["edsd"], y=["p_tau"],
            parameters={"mu": 40.0},
        )
        assert out.status.value == "success", out.error
        service.shutdown()
        fed.shutdown()
        loaded = sorted(m for m in sys.modules if m.startswith("repro.simtest"))
        print(",".join(loaded) or "clean")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "clean"


def test_a_second_federation_fans_out_on_real_threads_mid_simulation(
    monkeypatch, worker_data
):
    spec = SimSpec.parse("seed=9;par=2;jobs=2;faults=none")
    reference = run_simulation(spec).transcript

    probe_threads: list[str] = []
    build = harness.create_federation_for_sim

    def build_and_probe(spec, runtime):
        federation = build(spec, runtime)
        flow_step = runtime.flow_step

        def probing_flow_step(label):
            if not probe_threads:
                # Inside a scheduler task, mid-drive(): an unrelated
                # federation built without sim= uses its own thread pool.
                other = create_federation(worker_data, FederationConfig(parallelism=4))
                assert other.transport.sim is None
                for index in range(4):
                    other.transport.register(
                        f"probe_{index}",
                        lambda message: probe_threads.append(
                            threading.current_thread().name
                        )
                        or {},
                    )
                other.transport.send_many(
                    "master", [(f"probe_{i}", "ping", None) for i in range(4)]
                )
                other.shutdown()
            flow_step(label)

        runtime.flow_step = probing_flow_step
        return federation

    monkeypatch.setattr(harness, "create_federation_for_sim", build_and_probe)
    probed = run_simulation(spec)
    assert probed.ok, probed.failures()
    assert len(probe_threads) == 4
    assert all(name.startswith("transport") for name in probe_threads)
    assert probed.transcript == reference


def test_waiting_on_a_simulated_queue_drives_the_job_to_its_end(worker_data):
    from repro.core.experiment import ExperimentEngine, ExperimentRequest, ExperimentStatus
    from repro.simtest.runtime import SimRuntime

    import repro.algorithms  # noqa: F401

    federation = create_federation(worker_data, FederationConfig(seed=3), sim=SimRuntime(seed=3))
    engine = ExperimentEngine(federation, aggregation="plain")
    try:
        job_id = engine.submit(
            ExperimentRequest(
                algorithm="ttest_onesample", data_model="dementia",
                datasets=("adni", "edsd", "ppmi"),
                y=("p_tau",), parameters={"mu": 40.0},
            )
        )
        # Sim-mode queues run no executor threads: only wait() drives the job.
        result = engine.wait(job_id, timeout=60)
    finally:
        engine.shutdown()
        federation.shutdown()
    assert result.status is ExperimentStatus.SUCCESS, result.error


def test_a_task_that_never_yields_fails_with_its_stack():
    from repro.errors import SimTestError
    from repro.simtest.scheduler import SimScheduler

    release = threading.Event()

    def blocked_outside_a_yield_point():
        release.wait(10)

    scheduler = SimScheduler(seed=0, step_timeout=0.05)
    scheduler.spawn("stuck", blocked_outside_a_yield_point)
    try:
        try:
            scheduler.step_once()
        except SimTestError as error:
            message = str(error)
        else:
            raise AssertionError("the watchdog did not fire")
    finally:
        release.set()
    assert "did not yield within 0.05s" in message
    assert "blocked_outside_a_yield_point" in message
