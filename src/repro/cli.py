"""Command-line interface: drive a simulated federation from the shell.

The CLI stands where the MIP web dashboard stands in deployment — catalogue
browsing, the algorithm panel, and experiment execution — against either
synthetic cohorts or CSV exports loaded through the ETL pipeline.

Examples::

    python -m repro catalogue
    python -m repro algorithms
    python -m repro run --algorithm pearson_correlation \\
        -y lefthippocampus -y righthippocampus
    python -m repro run --algorithm kmeans -y ab_42 -y p_tau \\
        --param k=3 --param seed=1 --aggregation smpc
    python -m repro run --algorithm linear_regression \\
        -y lefthippocampus -x agevalue --csv site_a=export_a.csv
    python -m repro trace --algorithm pearson_correlation \\
        -y lefthippocampus -y righthippocampus --out trace.json
    python -m repro metrics --algorithm mean -y lefthippocampus
    python -m repro submit --algorithm descriptive_stats -y lefthippocampus --no-wait
    python -m repro jobs --algorithm descriptive_stats -y lefthippocampus --repeat 6 --pool 3
    python -m repro cancel --algorithm descriptive_stats -y lefthippocampus --repeat 4
    python -m repro profile --algorithm linear_regression \\
        -y lefthippocampus -x agevalue --out-dir profile-out
    python -m repro plan linear_regression --format tree
    python -m repro health --results-dir benchmarks/results --strict
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.api.service import MIPService
from repro.data.cdes import cde_registry
from repro.data.cohorts import CohortSpec, generate_cohort
from repro.errors import ReproError
from repro.etl.harmonize import harmonize_table
from repro.etl.loader import load_csv
from repro.federation.controller import FederationConfig, create_federation

DEFAULT_DATASETS = ("edsd", "adni", "ppmi")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MIP reproduction: federated medical analytics from the shell.",
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    subcommands.add_parser("catalogue", help="list data models, datasets and variables")
    subcommands.add_parser("algorithms", help="list algorithms and their parameters")

    run = subcommands.add_parser("run", help="run a federated experiment")
    trace = subcommands.add_parser(
        "trace", help="run an experiment with tracing on and export the trace"
    )
    trace.add_argument("--format", choices=("chrome", "json", "tree"),
                       default="chrome",
                       help="chrome trace-event JSON (default), flat span "
                            "JSON, or a nested span tree")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write the trace to a file instead of stdout")
    trace.add_argument("--audit", action="store_true",
                       help="include the experiment's privacy audit trail")
    trace.add_argument("--min-ms", type=float, default=0.0, metavar="MS",
                       help="tree format: hide spans shorter than MS "
                            "milliseconds (ancestors of kept spans survive)")
    trace.add_argument("--top", type=int, default=None, metavar="N",
                       help="tree format: keep only each span's N slowest "
                            "children (pruned ones are counted, not lost)")
    metrics = subcommands.add_parser(
        "metrics", help="run an experiment and render the unified metrics"
    )
    metrics.add_argument("--format", choices=("prometheus", "json"),
                         default="prometheus")

    submit = subcommands.add_parser(
        "submit", help="submit an experiment to the job queue"
    )
    submit.add_argument("--priority", type=int, default=0,
                        help="dispatch priority (higher runs first)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and queue state instead of "
                             "blocking on the result")
    jobs = subcommands.add_parser(
        "jobs", help="submit a batch through the queue and list every job"
    )
    cancel = subcommands.add_parser(
        "cancel", help="submit a batch, cancel the last queued job, list states"
    )
    resume = subcommands.add_parser(
        "resume",
        help="restart from a durable --state-dir: replay the journal, "
             "restore finished results, resume interrupted experiments",
    )
    resume.add_argument("--state-dir", required=True, metavar="DIR",
                        help="the state directory of the crashed run (data "
                             "flags must match the original invocation)")
    for subparser in (submit, jobs, cancel, resume):
        subparser.add_argument("--pool", type=int, default=2,
                               help="executor pool size (default 2)")
    for subparser in (jobs, cancel):
        subparser.add_argument("--repeat", type=int, default=4,
                               help="number of experiments to submit (default 4)")
    for subparser in (run, submit, jobs, cancel):
        subparser.add_argument("--state-dir", default=None, metavar="DIR",
                               help="durable state directory: journal every "
                                    "job lifecycle and checkpoint federation "
                                    "reads so `repro resume` can recover")

    profile = subcommands.add_parser(
        "profile",
        help="run under the sampling profiler; export a flamegraph and the "
             "critical-path report",
    )
    profile.add_argument("script", nargs="?", default=None, metavar="SCRIPT",
                         help="python script to profile instead of a "
                              "federated experiment (e.g. examples/quickstart.py)")
    profile.add_argument("--hz", type=float, default=None,
                         help="sampling rate (default 97 Hz)")
    profile.add_argument("--out-dir", default="profile-out", metavar="DIR",
                         help="directory for flamegraph.collapsed, "
                              "profile.speedscope.json and critical_path.json "
                              "(default profile-out/)")
    profile.add_argument("--clock", choices=("wall", "sim"), default="wall",
                         help="critical-path clock: real time (default) or "
                              "the transport's modeled network seconds")

    plan = subcommands.add_parser(
        "plan",
        help="record an algorithm's flow plan (the DAG the executor runs) "
             "and render it",
    )
    plan.add_argument("algorithm", metavar="ALGORITHM",
                      help="registered algorithm name (see `repro algorithms`)")
    plan.add_argument("--format", choices=("tree", "json", "dot"),
                      default="tree",
                      help="ASCII dependency tree (default), the canonical "
                           "DAG JSON, or Graphviz DOT")
    plan.add_argument("--out", default=None, metavar="PATH",
                      help="write the rendering to a file instead of stdout")
    plan.add_argument("--data-model", default="dementia")
    plan.add_argument("--datasets", nargs="*", default=None,
                      help="dataset codes (default: all available)")
    plan.add_argument("-y", action="append", default=[], metavar="VAR",
                      help="dependent variable (default: the algorithm's "
                           "demo request)")
    plan.add_argument("-x", action="append", default=[], metavar="VAR",
                      help="covariate (repeatable)")
    plan.add_argument("--param", action="append", default=[],
                      metavar="NAME=VALUE",
                      help="algorithm parameter (repeatable)")
    plan.add_argument("--filter", default=None,
                      help="SQL row filter, e.g. \"agevalue > 65\"")
    plan.add_argument("--aggregation", choices=("smpc", "plain"),
                      default="smpc")
    plan.add_argument("--rows", type=int, default=60,
                      help="rows per synthetic cohort (default 60)")
    plan.add_argument("--seed", type=int, default=0)

    health = subcommands.add_parser(
        "health",
        help="evaluate bench snapshots against committed SLO baselines",
    )
    health.add_argument("--results-dir", default="benchmarks/results",
                        metavar="DIR",
                        help="directory holding BENCH_*.json snapshots "
                             "(default benchmarks/results)")
    health.add_argument("--baseline-dir", default=None, metavar="DIR",
                        help="directory holding BASELINE_*.json files "
                             "(default: the results dir)")
    health.add_argument("--warn-pct", type=float, default=10.0,
                        help="warn when a latency metric regresses more than "
                             "this percentage (default 10)")
    health.add_argument("--fail-pct", type=float, default=20.0,
                        help="fail when a latency metric regresses more than "
                             "this percentage (default 20)")
    health.add_argument("--strict", action="store_true",
                        help="also exit nonzero on warnings and missing runs")
    health.add_argument("--update-baselines", action="store_true",
                        help="fold the current results into the rolling "
                             "baselines before evaluating")
    health.add_argument("--window", type=int, default=10,
                        help="rolling-baseline window size (default 10 runs)")
    health.add_argument("--format", choices=("text", "json"), default="text")

    fuzz = subcommands.add_parser(
        "fuzz",
        help="fuzz the deterministic simulation harness "
             "(seeds x fault plans x parallelism)",
    )
    fuzz.add_argument("--runs", type=int, default=25,
                      help="number of random scenarios to run (default 25)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="fuzzer RNG seed (scenario sampling; default 0)")
    fuzz.add_argument("--budget-seconds", type=float, default=None,
                      help="additionally stop after this much wall time")
    fuzz.add_argument("--replay", metavar="SPEC", default=None,
                      help="replay one 'seed=S;par=P;jobs=N;faults=...' "
                           "scenario and print its transcript")
    fuzz.add_argument("--corpus", metavar="PATH", default=None,
                      help="replay every scenario in a corpus file")
    fuzz.add_argument("--write-corpus", metavar="PATH", default=None,
                      help="append the scenarios this session ran to a "
                           "corpus file")
    fuzz.add_argument("--master-crash", action="store_true",
                      help="admit crash@N:master faults (kill-and-restart "
                           "recovery) into the sampled fault plans")

    for subparser in (run, trace, metrics, submit, jobs, cancel, profile, resume):
        # `repro profile` can take a script instead of an experiment;
        # `repro resume` takes its work from the journal.
        subparser.add_argument(
            "--algorithm", required=subparser not in (profile, resume)
        )
        subparser.add_argument("--data-model", default="dementia")
        subparser.add_argument("--datasets", nargs="*", default=None,
                               help="dataset codes (default: all available)")
        subparser.add_argument("-y", action="append", default=[], metavar="VAR",
                               help="dependent variable (repeatable)")
        subparser.add_argument("-x", action="append", default=[], metavar="VAR",
                               help="covariate (repeatable)")
        subparser.add_argument("--param", action="append", default=[],
                               metavar="NAME=VALUE",
                               help="algorithm parameter (repeatable)")
        subparser.add_argument("--filter", default=None,
                               help="SQL row filter, e.g. \"agevalue > 65\"")
        subparser.add_argument("--aggregation", choices=("smpc", "plain"),
                               default="smpc")
        subparser.add_argument("--smpc-scheme",
                               choices=("shamir", "full_threshold"),
                               default="shamir")
        subparser.add_argument("--csv", action="append", default=[],
                               metavar="WORKER=PATH",
                               help="load a worker's data from a CSV export "
                                    "(repeatable); replaces the synthetic cohorts")
        subparser.add_argument("--rows", type=int, default=300,
                               help="rows per synthetic cohort (default 300)")
        subparser.add_argument("--seed", type=int, default=0)
    return parser


def parse_parameter(text: str) -> tuple[str, Any]:
    """Parse a NAME=VALUE --param item (values parsed as JSON when possible)."""
    if "=" not in text:
        raise SystemExit(f"--param expects NAME=VALUE, got {text!r}")
    name, raw = text.split("=", 1)
    try:
        value: Any = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return name, value


def build_service(args: argparse.Namespace) -> MIPService:
    """Assemble the federation (synthetic cohorts or --csv exports) and service."""
    if getattr(args, "csv", None):
        model = cde_registry.get(getattr(args, "data_model", "dementia"))
        worker_data = {}
        for item in args.csv:
            if "=" not in item:
                raise SystemExit(f"--csv expects WORKER=PATH, got {item!r}")
            worker, path = item.split("=", 1)
            table, report = harmonize_table(load_csv(path, model), model)
            if report.total_nulled:
                print(f"[etl] {worker}: nulled {report.total_nulled} "
                      "out-of-contract values", file=sys.stderr)
            worker_data[worker] = {model.name: table}
    else:
        rows = getattr(args, "rows", 300)
        seed = getattr(args, "seed", 0)
        worker_data = {
            f"hospital_{code}": {
                "dementia": generate_cohort(CohortSpec(code, rows, seed=seed + index))
            }
            for index, code in enumerate(DEFAULT_DATASETS)
        }
    config = FederationConfig(
        smpc_scheme=getattr(args, "smpc_scheme", "shamir"),
        seed=getattr(args, "seed", 0),
    )
    federation = create_federation(worker_data, config)
    return MIPService(
        federation,
        aggregation=getattr(args, "aggregation", "smpc"),
        pool_size=getattr(args, "pool", 1),
        state_dir=getattr(args, "state_dir", None),
    )


def command_catalogue(args: argparse.Namespace) -> int:
    """`repro catalogue`: data models, datasets, variables as JSON."""
    service = build_service(args)
    output = {}
    for model in service.data_models():
        output[model] = {
            "datasets": service.datasets(model),
            "variables": service.variables(model),
        }
    print(json.dumps(output, indent=2))
    return 0


def command_algorithms(args: argparse.Namespace) -> int:
    """`repro algorithms`: the algorithm panel as JSON."""
    service = build_service(args)
    print(json.dumps(service.algorithms(), indent=2))
    return 0


def _run_one_experiment(args: argparse.Namespace, service: MIPService):
    """Shared run/trace/metrics path: resolve datasets, run one experiment."""
    datasets = args.datasets
    if not datasets:
        datasets = sorted(service.datasets(args.data_model))
    parameters = dict(parse_parameter(p) for p in args.param)
    return service.run_experiment(
        algorithm=args.algorithm,
        data_model=args.data_model,
        datasets=datasets,
        y=args.y,
        x=args.x,
        parameters=parameters,
        filter_sql=args.filter,
    )


def command_run(args: argparse.Namespace) -> int:
    """`repro run`: execute one experiment; exit 0 on success, 1 on error."""
    service = build_service(args)
    result = _run_one_experiment(args, service)
    payload = {
        "experiment_id": result.experiment_id,
        "status": result.status.value,
        "workers": list(result.workers),
        "elapsed_seconds": round(result.elapsed_seconds, 4),
    }
    if result.status.value == "success":
        payload["result"] = result.result
    else:
        payload["error"] = result.error
    print(json.dumps(payload, indent=2))
    return 0 if result.status.value == "success" else 1


def command_trace(args: argparse.Namespace) -> int:
    """`repro trace`: run one experiment with tracing on, export the spans."""
    from repro.observability.trace import tracer

    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    try:
        service = build_service(args)
        result = _run_one_experiment(args, service)
        if args.format == "chrome":
            output: Any = tracer.export_chrome()
            if args.audit:
                output["otherData"] = {"audit": list(result.audit)}
        elif args.format == "json":
            output = {"spans": tracer.export_json()}
            if args.audit:
                output["audit"] = list(result.audit)
        else:
            from repro.observability.trace import filter_tree

            roots = tracer.span_tree()
            if args.min_ms or args.top is not None:
                roots = filter_tree(roots, min_ms=args.min_ms, top=args.top)
            output = {"trace": roots}
            if args.audit:
                output["audit"] = list(result.audit)
        text = json.dumps(output, indent=2, default=str)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.format} trace ({len(tracer.spans())} spans) "
                  f"to {args.out}", file=sys.stderr)
        else:
            print(text)
        return 0 if result.status.value == "success" else 1
    finally:
        if not was_enabled:
            tracer.disable()


def command_metrics(args: argparse.Namespace) -> int:
    """`repro metrics`: run one experiment, render the unified registry."""
    service = build_service(args)
    result = _run_one_experiment(args, service)
    registry = service.metrics_registry()
    if args.format == "json":
        print(registry.render_json())
    else:
        print(registry.render_prometheus(), end="")
    return 0 if result.status.value == "success" else 1


def _submit_kwargs(args: argparse.Namespace, service: MIPService) -> dict[str, Any]:
    """Shared submit/jobs/cancel path: resolve datasets and request fields."""
    datasets = args.datasets
    if not datasets:
        datasets = sorted(service.datasets(args.data_model))
    return {
        "algorithm": args.algorithm,
        "data_model": args.data_model,
        "datasets": datasets,
        "y": args.y,
        "x": args.x,
        "parameters": dict(parse_parameter(p) for p in args.param),
        "filter_sql": args.filter,
    }


def _job_table(service: MIPService) -> list[dict[str, Any]]:
    rows = []
    for snapshot in service.jobs():
        row = {k: v for k, v in snapshot.items() if v is not None}
        for key in ("wait_seconds", "elapsed_seconds", "queued_seconds"):
            if key in row:
                row[key] = round(row[key], 4)
        rows.append(row)
    return rows


def command_submit(args: argparse.Namespace) -> int:
    """`repro submit`: enqueue one experiment; --no-wait returns immediately."""
    service = build_service(args)
    job_id = service.submit_experiment(
        **_submit_kwargs(args, service), priority=args.priority
    )
    if args.no_wait:
        print(json.dumps({"experiment_id": job_id,
                          "queue": service.engine.queue.stats()}, indent=2))
        return 0
    result = service.wait_experiment(job_id)
    payload = {
        "experiment_id": result.experiment_id,
        "status": result.status.value,
        "elapsed_seconds": round(result.elapsed_seconds, 4),
    }
    if result.status.value == "success":
        payload["result"] = result.result
    else:
        payload["error"] = result.error
    print(json.dumps(payload, indent=2))
    return 0 if result.status.value == "success" else 1


def command_jobs(args: argparse.Namespace) -> int:
    """`repro jobs`: push a batch through the queue, report every job."""
    service = build_service(args)
    kwargs = _submit_kwargs(args, service)
    ids = [
        service.submit_experiment(**kwargs, name=f"batch-{index}")
        for index in range(args.repeat)
    ]
    results = [service.wait_experiment(job_id) for job_id in ids]
    print(json.dumps({
        "jobs": _job_table(service),
        "queue": service.engine.queue.stats(),
        "telemetry": [
            {"experiment_id": r.experiment_id,
             "messages": r.telemetry.messages,
             "smpc_rounds": r.telemetry.smpc_rounds}
            for r in results
        ],
    }, indent=2))
    return 0 if all(r.status.value == "success" for r in results) else 1


def command_cancel(args: argparse.Namespace) -> int:
    """`repro cancel`: demonstrate pre-dispatch cancellation on a batch."""
    service = build_service(args)
    kwargs = _submit_kwargs(args, service)
    ids = [
        service.submit_experiment(**kwargs, name=f"batch-{index}")
        for index in range(args.repeat)
    ]
    cancelled = service.cancel_experiment(ids[-1])
    for job_id in ids[:-1]:
        service.wait_experiment(job_id)
    # wait() resolves for cancelled jobs too (pre-dispatch ones immediately).
    last = service.wait_experiment(ids[-1])
    print(json.dumps({
        "cancelled": cancelled,
        "cancelled_job": {"experiment_id": last.experiment_id,
                          "status": last.status.value,
                          "error": last.error},
        "jobs": _job_table(service),
    }, indent=2))
    return 0


def command_resume(args: argparse.Namespace) -> int:
    """`repro resume`: recover a durable state directory and finish its jobs.

    Prints the recovery report (restored/resumed jobs, journal health), then
    drives every resumed experiment to a terminal state and reports each.
    """
    service = build_service(args)
    recovery = service.recovery or {}
    resumed = []
    for job_id in recovery.get("resumed", ()):
        result = service.wait_experiment(job_id)
        entry = {
            "experiment_id": result.experiment_id,
            "status": result.status.value,
            "elapsed_seconds": round(result.elapsed_seconds, 4),
        }
        if result.status.value == "success":
            entry["result"] = result.result
        else:
            entry["error"] = result.error
        resumed.append(entry)
    print(json.dumps({
        "recovery": recovery,
        "resumed_results": resumed,
        "durability": service.durability.stats(),
    }, indent=2))
    service.shutdown()
    return 0 if all(r["status"] == "success" for r in resumed) else 1


def command_profile(args: argparse.Namespace) -> int:
    """`repro profile`: sample a run, export flamegraph + critical path.

    Profiles either a federated experiment (the ``run`` flags) or an
    arbitrary Python script (positional path).  Writes
    ``flamegraph.collapsed`` (flamegraph.pl / inferno / speedscope input),
    ``profile.speedscope.json`` and ``critical_path.json`` into
    ``--out-dir`` and prints the critical-path report.
    """
    import pathlib

    from repro.observability.profiler import DEFAULT_HZ, SamplingProfiler
    from repro.observability.trace import tracer

    if args.script is None and not args.algorithm:
        raise SystemExit("repro profile needs a SCRIPT path or --algorithm")
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profiler = SamplingProfiler(hz=args.hz or DEFAULT_HZ)
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    exit_code = 0
    try:
        if not profiler.start():
            print("warning: profiler refused to start (simulation active); "
                  "collecting the trace only", file=sys.stderr)
        if args.script is not None:
            import runpy

            runpy.run_path(args.script, run_name="__main__")
            root_name = None
        else:
            service = build_service(args)
            result = _run_one_experiment(args, service)
            exit_code = 0 if result.status.value == "success" else 1
            root_name = "experiment"
        profiler.stop()
        report = tracer.critical_path(clock=args.clock, root_name=root_name)
    finally:
        profiler.stop()
        if not was_enabled:
            tracer.disable()

    (out_dir / "flamegraph.collapsed").write_text(profiler.collapsed())
    (out_dir / "profile.speedscope.json").write_text(
        json.dumps(profiler.speedscope(name=args.script or args.algorithm), indent=2)
        + "\n"
    )
    (out_dir / "critical_path.json").write_text(report.to_json() + "\n")
    print(report.render())
    summary = profiler.summary()
    print(
        f"\nprofile: {summary['ticks']} ticks at {summary['hz']:g} Hz, "
        f"{summary['unique_stacks']} unique stacks, "
        f"artifacts in {out_dir}/", file=sys.stderr
    )
    return exit_code


def command_plan(args: argparse.Namespace) -> int:
    """`repro plan`: record and render an algorithm's flow-plan DAG.

    Runs the algorithm once against synthetic cohorts, then renders the
    plan the run recorded: every local/global step, aggregation, broadcast
    and barrier with its data dependencies.
    """
    from repro.api.demo import DEMO_REQUESTS
    from repro.core.experiment import ExperimentRequest
    from repro.core.runner import ExperimentRunner

    service = build_service(args)
    datasets = args.datasets
    if not datasets:
        datasets = sorted(service.datasets(args.data_model))
    if args.y or args.x or args.param:
        y, x = tuple(args.y), tuple(args.x)
        parameters = dict(parse_parameter(p) for p in args.param)
    elif args.algorithm in DEMO_REQUESTS:
        demo = DEMO_REQUESTS[args.algorithm]
        y, x = tuple(demo["y"]), tuple(demo["x"])
        parameters = dict(demo["parameters"])
    else:
        raise SystemExit(
            f"no demo request for algorithm {args.algorithm!r}; "
            "pass -y/-x/--param explicitly"
        )
    request = ExperimentRequest(
        algorithm=args.algorithm,
        data_model=args.data_model,
        datasets=tuple(datasets),
        y=y,
        x=x,
        parameters=parameters,
        filter_sql=args.filter,
    )
    runner = ExperimentRunner(service.federation, aggregation=args.aggregation)
    info: dict[str, Any] = {}
    runner.execute(request, "plan", info=info)
    plan = info["plan"]
    if args.format == "tree":
        text = plan.render_tree()
    elif args.format == "json":
        text = json.dumps(plan.to_json(), indent=2)
    else:
        text = plan.to_dot()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.format} plan ({len(plan)} nodes) to {args.out}",
              file=sys.stderr)
    else:
        print(text)
    return 0


def command_health(args: argparse.Namespace) -> int:
    """`repro health`: bench snapshots vs. SLO baselines; exit 1 on regression.

    ``--strict`` additionally fails on warnings and on baselines with no
    current bench run (the CI perf-gate mode).  ``--update-baselines``
    folds the current results into the rolling windows first — run it
    locally, then commit the refreshed ``BASELINE_*.json`` files.
    """
    from repro.observability import slo

    baseline_dir = args.baseline_dir or args.results_dir
    if args.update_baselines:
        store = slo.BaselineStore(baseline_dir)
        for result in slo.load_bench_results(args.results_dir):
            store.update(result, window=args.window)
            print(f"updated {store.path(result.name)}", file=sys.stderr)
    report = slo.evaluate(
        args.results_dir,
        baseline_dir,
        warn_pct=args.warn_pct,
        fail_pct=args.fail_pct,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return report.exit_code(strict=args.strict)


def command_fuzz(args: argparse.Namespace) -> int:
    """`repro fuzz`: randomized simulation search, replay, corpus runs.

    Exit codes: 0 all scenarios clean, 1 a scenario failed (the shrunk
    single-line repro command is printed), 2 usage/setup errors.
    """
    from repro.simtest import fuzz as fuzz_mod
    from repro.simtest.harness import SimSpec, repro_command

    if args.replay is not None:
        outcome = fuzz_mod.run_one(SimSpec.parse(args.replay))
        if outcome.report is not None:
            print(outcome.report.transcript, end="")
        for line in outcome.failures():
            print(f"FAIL {line}")
        return 1 if outcome.failed else 0

    if args.corpus is not None:
        specs = fuzz_mod.read_corpus(args.corpus)
        failed = 0
        for spec in specs:
            outcome = fuzz_mod.run_one(spec)
            status = "FAIL" if outcome.failed else "ok"
            print(f"{status} {spec.spec()}")
            if outcome.failed:
                failed += 1
                for line in outcome.failures():
                    print(f"  {line}")
                print(f"  reproduce with: {repro_command(spec)}")
        print(f"corpus: {len(specs) - failed}/{len(specs)} ok")
        return 1 if failed else 0

    result = fuzz_mod.fuzz(
        runs=args.runs,
        seed=args.seed,
        budget_seconds=args.budget_seconds,
        emit=print,
        master_crash=args.master_crash,
    )
    if args.write_corpus:
        fuzz_mod.write_corpus(args.write_corpus, result.specs)
        print(f"wrote {len(result.specs)} scenarios to {args.write_corpus}")
    print(
        f"fuzz: {result.runs} runs in {result.elapsed_seconds:.1f}s, "
        + ("all clean" if result.ok else "FAILURE found")
    )
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # catalogue/algorithms accept the data-source flags too, with defaults.
    for attribute, default in (("csv", []), ("rows", 300), ("seed", 0),
                               ("data_model", "dementia")):
        if not hasattr(args, attribute):
            setattr(args, attribute, default)
    handlers = {
        "catalogue": command_catalogue,
        "algorithms": command_algorithms,
        "run": command_run,
        "trace": command_trace,
        "metrics": command_metrics,
        "submit": command_submit,
        "jobs": command_jobs,
        "cancel": command_cancel,
        "resume": command_resume,
        "profile": command_profile,
        "plan": command_plan,
        "health": command_health,
        "fuzz": command_fuzz,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
