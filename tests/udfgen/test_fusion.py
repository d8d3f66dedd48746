"""UDF fusion and stateful (session-cache) execution — the paper's roadmap
items reproduced as working features."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import UDFError
from repro.udfgen import (
    FusionStep,
    StepOutput,
    generate_fused_application,
    generate_udf_application,
    literal,
    relation,
    run_udf_application,
    state,
    transfer,
    udf,
)
from repro.udfgen.decorators import get_spec
from repro.udfgen.runtime import deserialize_state, deserialize_transfer


@udf(data=relation(), return_type=[state()])
def fusion_load(data):
    return {"matrix": data.to_matrix()}


@udf(previous=state(), power=literal(), return_type=[state()])
def fusion_square(previous, power):
    return {"matrix": previous["matrix"] ** power}


@udf(previous=state(), return_type=[transfer()])
def fusion_reduce(previous):
    return {"total": float(previous["matrix"].sum())}


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
        )
        (out,) = run_udf_application(db, application)
        result = deserialize_transfer(db.scalar(f"SELECT * FROM {out}"))
        assert result == {"total": 1.0 + 4.0 + 9.0 + 16.0}

    def test_matches_unfused_chain(self, db):
        # unfused: three applications with intermediate tables
        first = generate_udf_application(get_spec(fusion_load), "u1", {"data": "numbers"})
        (state_1,) = run_udf_application(db, first)
        second = generate_udf_application(
            get_spec(fusion_square), "u2", {"previous": state_1, "power": 2}
        )
        (state_2,) = run_udf_application(db, second)
        third = generate_udf_application(get_spec(fusion_reduce), "u3", {"previous": state_2})
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
        )
        run_udf_application(db, application)
        created = set(db.table_names()) - before
        assert created == set(application.output_tables)
        assert len(created) == 1  # only the final transfer

    def test_forward_reference_rejected(self, db):
        with pytest.raises(UDFError, match="earlier step"):
            generate_fused_application(
                [
                    FusionStep(get_spec(fusion_reduce), {"previous": StepOutput(0)}),
                ],
                "bad",
            )

    def test_zero_steps_rejected(self):
        with pytest.raises(UDFError):
            generate_fused_application([], "empty")

    def test_missing_argument_names_step(self):
        with pytest.raises(UDFError, match="fused step 0"):
            generate_fused_application(
                [FusionStep(get_spec(fusion_square), {"power": 2})], "bad2"
            )


class TestStatefulExecution:
    def test_state_served_from_session_cache(self, db):
        first = generate_udf_application(get_spec(fusion_load), "s1", {"data": "numbers"})
        (state_table,) = run_udf_application(db, first)
        assert state_table in db.session_cache
        # poison the serialized blob: if the cache is used, the chain still works
        schema = db.get_table(state_table).schema
        db.register_table(
            state_table, Table.from_rows(schema, [("not-base64-pickle",)]), replace=True
        )
        second = generate_udf_application(
            get_spec(fusion_reduce), "s2", {"previous": state_table}
        )
        (out,) = run_udf_application(db, second)
        assert deserialize_transfer(db.scalar(f"SELECT * FROM {out}"))["total"] == 10.0

    def test_stateless_mode_deserializes(self, db):
        first = generate_udf_application(
            get_spec(fusion_load), "s3", {"data": "numbers"}, stateful=False
        )
        (state_table,) = run_udf_application(db, first)
        assert state_table not in db.session_cache
        restored = deserialize_state(db.scalar(f"SELECT * FROM {state_table}"))
        assert np.array_equal(restored["matrix"], np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_cache_invalidated_on_drop(self, db):
        first = generate_udf_application(get_spec(fusion_load), "s4", {"data": "numbers"})
        (state_table,) = run_udf_application(db, first)
        db.drop_table(state_table)
        assert state_table not in db.session_cache

    def test_fallback_to_blob_on_cache_miss(self, db):
        first = generate_udf_application(get_spec(fusion_load), "s5", {"data": "numbers"})
        (state_table,) = run_udf_application(db, first)
        db.session_cache.clear()  # e.g. a different session resumes the job
        second = generate_udf_application(
            get_spec(fusion_reduce), "s6", {"previous": state_table}
        )
        (out,) = run_udf_application(db, second)
        assert deserialize_transfer(db.scalar(f"SELECT * FROM {out}"))["total"] == 10.0
