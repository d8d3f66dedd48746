"""UDF fusion — the paper's roadmap item reproduced as a working feature.

Unfused, the steps below pass ``transfer()`` tables; fused, each step's
output reaches the next as a live Python object.
"""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.errors import UDFError
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
from repro.udfgen.generator import UDFPlanCache
from repro.udfgen.runtime import deserialize_transfer

#: The generating node's plan cache, as a master or worker holds one.
PLAN_CACHE = UDFPlanCache()


@udf(data=relation(), return_type=[transfer()])
def fusion_load(data):
    return {"matrix": data.to_matrix()}


@udf(previous=transfer(), power=literal(), return_type=[transfer()])
def fusion_square(previous, power):
    return {"matrix": np.asarray(previous["matrix"]) ** power}


@udf(previous=transfer(), return_type=[transfer()])
def fusion_reduce(previous):
    return {"total": float(np.asarray(previous["matrix"]).sum())}


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE numbers (a REAL, b REAL)")
    database.execute("INSERT INTO numbers VALUES (1.0, 2.0), (3.0, 4.0)")
    return database


class TestFusion:
    def test_three_step_pipeline_single_application(self, db):
        application = generate_fused_application(
            [
                FusionStep(get_spec(fusion_load), {"data": "numbers"}),
                FusionStep(get_spec(fusion_square),
                           {"previous": StepOutput(0), "power": 2}),
                FusionStep(get_spec(fusion_reduce), {"previous": StepOutput(1)}),
            ],
            "fuse1",
            PLAN_CACHE,
        )
        (out,) = run_udf_application(db, application)
        result = deserialize_transfer(db.scalar(f"SELECT * FROM {out}"))
        assert result == {"total": 1.0 + 4.0 + 9.0 + 16.0}

    def test_matches_unfused_chain(self, db):
        # unfused: three applications with intermediate tables
        first = generate_udf_application(
            get_spec(fusion_load), "u1", {"data": "numbers"}, PLAN_CACHE
        )
        (loaded,) = run_udf_application(db, first)
        second = generate_udf_application(
            get_spec(fusion_square), "u2", {"previous": loaded, "power": 2}, PLAN_CACHE
        )
        (squared,) = run_udf_application(db, second)
        third = generate_udf_application(
            get_spec(fusion_reduce), "u3", {"previous": squared}, PLAN_CACHE
        )
        (out_unfused,) = run_udf_application(db, third)
        unfused = deserialize_transfer(db.scalar(f"SELECT * FROM {out_unfused}"))

        fused_app = generate_fused_application(
            [
                FusionStep(get_spec(fusion_load), {"data": "numbers"}),
                FusionStep(get_spec(fusion_square),
                           {"previous": StepOutput(0), "power": 2}),
                FusionStep(get_spec(fusion_reduce), {"previous": StepOutput(1)}),
            ],
            "fuse2",
            PLAN_CACHE,
        )
        (out_fused,) = run_udf_application(db, fused_app)
        fused = deserialize_transfer(db.scalar(f"SELECT * FROM {out_fused}"))
        assert fused == unfused

    def test_no_intermediate_tables(self, db):
        before = set(db.table_names())
        application = generate_fused_application(
            [
                FusionStep(get_spec(fusion_load), {"data": "numbers"}),
                FusionStep(get_spec(fusion_reduce), {"previous": StepOutput(0)}),
            ],
            "fuse3",
            PLAN_CACHE,
        )
        run_udf_application(db, application)
        created = set(db.table_names()) - before
        assert created == set(application.output_tables)
        assert len(created) == 1  # only the final transfer

    def test_fused_definition_reused_across_jobs(self, db):
        def steps(power):
            return [
                FusionStep(get_spec(fusion_load), {"data": "numbers"}),
                FusionStep(get_spec(fusion_square),
                           {"previous": StepOutput(0), "power": power}),
                FusionStep(get_spec(fusion_reduce), {"previous": StepOutput(1)}),
            ]

        first = generate_fused_application(steps(1), "reuse1", PLAN_CACHE)
        second = generate_fused_application(steps(3), "reuse2", PLAN_CACHE)
        assert first.function_name == second.function_name
        assert first.output_tables != second.output_tables
        run_udf_application(db, first)
        functions = db.function_names()
        (out,) = run_udf_application(db, second)
        assert db.function_names() == functions
        assert deserialize_transfer(db.scalar(f"SELECT * FROM {out}")) == {
            "total": 1.0 + 8.0 + 27.0 + 64.0
        }

    def test_forward_reference_rejected(self, db):
        with pytest.raises(UDFError, match="earlier step"):
            generate_fused_application(
                [
                    FusionStep(get_spec(fusion_reduce), {"previous": StepOutput(0)}),
                ],
                "bad",
                PLAN_CACHE,
            )

    def test_zero_steps_rejected(self):
        with pytest.raises(UDFError):
            generate_fused_application([], "empty", PLAN_CACHE)

    def test_missing_argument_names_step(self):
        with pytest.raises(UDFError, match="fused step 0"):
            generate_fused_application(
                [FusionStep(get_spec(fusion_square), {"power": 2})], "bad2", PLAN_CACHE
            )
