"""E9 — §2 roadmap ablation: UDF fusion.

The paper's roadmap: "integrating this process with recent research
advancements to in-engine, performant and stateful Python UDF execution
using tracing JIT compilation and UDF fusion [1, 9]".  Fusion is implemented
(`repro.udfgen.generator.generate_fused_application`); this bench quantifies
it on a step chain with a large intermediate value:

- *unfused* — one application per step; each step's ``transfer()`` output
              is a table the next step reads back and decodes,
- *fused*   — the whole chain is one generated UDF; intermediates never
              touch SQL at all.

Fusion has no platform caller: no golden plan (``tests/golden_plans/``) has
a local step feeding a local step — every local step feeds an aggregate —
so there is no chain for a flow to fuse.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from repro.engine.database import Database, table_from_arrays
from repro.udfgen import (
    FusionStep,
    StepOutput,
    generate_fused_application,
    generate_udf_application,
    literal,
    relation,
    run_udf_application,
    transfer,
    udf,
)
from repro.udfgen.decorators import get_spec

from benchmarks.conftest import write_report

N_ROWS = 40_000
N_STEPS = 6

_INVOCATION = itertools.count()


@udf(data=relation(), return_type=[transfer()])
def chain_load(data):
    return {"matrix": data.to_matrix()}


@udf(previous=transfer(), shift=literal(), return_type=[transfer()])
def chain_transform(previous, shift):
    return {"matrix": np.asarray(previous["matrix"]) * 1.0001 + shift}


@udf(previous=transfer(), return_type=[transfer()])
def chain_reduce(previous):
    return {"total": float(np.asarray(previous["matrix"]).sum())}


def make_database() -> Database:
    rng = np.random.default_rng(3)
    database = Database()
    database.register_table(
        "chain_data",
        table_from_arrays(
            ["a", "b", "c"],
            [rng.normal(size=N_ROWS) for _ in range(3)],
        ),
    )
    return database


def run_unfused(database: Database) -> float:
    tag = f"u{next(_INVOCATION)}"
    app = generate_udf_application(get_spec(chain_load), f"{tag}_0", {"data": "chain_data"})
    (current,) = run_udf_application(database, app)
    for index in range(N_STEPS):
        app = generate_udf_application(
            get_spec(chain_transform), f"{tag}_{index + 1}",
            {"previous": current, "shift": 0.5},
        )
        (current,) = run_udf_application(database, app)
    app = generate_udf_application(get_spec(chain_reduce), f"{tag}_r", {"previous": current})
    (out,) = run_udf_application(database, app)
    import json

    return json.loads(database.scalar(f"SELECT * FROM {out}"))["total"]


def run_fused(database: Database) -> float:
    steps = [FusionStep(get_spec(chain_load), {"data": "chain_data"})]
    for index in range(N_STEPS):
        steps.append(
            FusionStep(
                get_spec(chain_transform),
                {"previous": StepOutput(index), "shift": 0.5},
            )
        )
    steps.append(FusionStep(get_spec(chain_reduce), {"previous": StepOutput(N_STEPS)}))
    app = generate_fused_application(steps, f"f{next(_INVOCATION)}")
    (out,) = run_udf_application(database, app)
    import json

    return json.loads(database.scalar(f"SELECT * FROM {out}"))["total"]


def test_benchmark_unfused_chain(benchmark):
    benchmark.pedantic(run_unfused, args=(make_database(),), rounds=2, iterations=1)


def test_benchmark_fused_chain(benchmark):
    benchmark.pedantic(run_fused, args=(make_database(),), rounds=2, iterations=1)


def test_report_fusion_ablation():
    timings = {}
    results = {}
    for label, runner in (
        ("unfused (table per step)", run_unfused),
        ("fused (single UDF)", run_fused),
    ):
        # Best of three: the plan/compile caches make the absolute runtimes
        # small enough that a single run is at the mercy of GC pauses.
        best = float("inf")
        for _ in range(3):
            database = make_database()
            start = time.perf_counter()
            results[label] = runner(database)
            best = min(best, time.perf_counter() - start)
        timings[label] = best
    baseline = timings["unfused (table per step)"]
    lines = [
        "E9 — roadmap ablation: UDF fusion",
        f"({N_STEPS}-step transform chain over a {N_ROWS}x3 matrix)",
        "No golden plan has a local step feeding a local step, so fusion",
        "has no platform caller; this chain is synthetic.",
        "",
        f"{'variant':<28}{'time (s)':>10}{'speedup':>9}",
    ]
    for label, elapsed in timings.items():
        lines.append(f"{label:<28}{elapsed:>10.4f}{baseline / elapsed:>8.1f}x")
    lines.append("")
    lines.append("identical results across variants: "
                 f"{len(set(round(v, 6) for v in results.values())) == 1}")
    write_report("e9_fusion", lines)
    values = list(results.values())
    assert max(values) - min(values) < 1e-6
    assert timings["fused (single UDF)"] < baseline
