"""The late-materialising scan: what a SELECT gathers, shares and never builds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import executor
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType

WIDTH = 24
ROWS = 50


def _wide_table() -> Table:
    """24 columns in the hospital table's shape: one VARCHAR, the rest REAL
    with a NULL every seventh row (offset by column)."""
    names = ["dataset"] + [f"c{i}" for i in range(1, WIDTH)]
    columns = [Column.from_values(SQLType.VARCHAR, ["x" if r % 5 else "y" for r in range(ROWS)])]
    for i in range(1, WIDTH):
        columns.append(Column.from_values(
            SQLType.REAL, [None if (r + i) % 7 == 0 else float(r * i) for r in range(ROWS)]
        ))
    specs = [(names[0], SQLType.VARCHAR)] + [(name, SQLType.REAL) for name in names[1:]]
    return Table(Schema(specs), columns)


@pytest.fixture
def db() -> Database:
    database = Database()
    database.register_table("wide", _wide_table())
    return database


@pytest.fixture
def gathers(monkeypatch) -> list[Column]:
    """Every column that is fancy-indexed while the fixture is live."""
    seen: list[Column] = []
    for method in ("take", "filter"):
        original = getattr(Column, method)

        def recording(self, index, _original=original):
            seen.append(self)
            return _original(self, index)

        monkeypatch.setattr(Column, method, recording)
    return seen


def _names(table: Table, columns: list[Column]) -> list[str]:
    by_identity = {id(table.column(spec.name)): spec.name for spec in table.schema}
    return sorted(by_identity[id(column)] for column in columns)


class TestGatherOnlyWhatIsReferenced:
    def test_data_view_query_gathers_exactly_the_projected_columns(self, db, gathers):
        base = db.get_table("wide")
        result = db.query(
            "SELECT c3, c9 FROM wide "
            "WHERE dataset IN ('x') AND c3 IS NOT NULL AND c9 IS NOT NULL"
        )
        assert _names(base, gathers) == ["c3", "c9"]
        expected = [
            (r[3], r[9]) for r in base.to_rows()
            if r[0] == "x" and r[3] is not None and r[9] is not None
        ]
        assert 0 < len(expected) < ROWS
        assert result.to_rows() == expected

    def test_order_by_group_by_and_having_columns_are_gathered_too(self, db, gathers):
        base = db.get_table("wide")
        db.query("SELECT c2 FROM wide WHERE c1 > 3 ORDER BY c5")
        assert _names(base, gathers[:2]) == ["c2", "c5"]
        gathers.clear()
        db.query(
            "SELECT dataset, SUM(c4) FROM wide WHERE c1 > 3 "
            "GROUP BY dataset HAVING MAX(c6) > 0"
        )
        # the scan's gather comes first; per-group takes follow on its output
        assert _names(base, gathers[:3]) == ["c4", "c6", "dataset"]

    def test_select_star_gathers_every_column(self, db, gathers):
        db.query("SELECT * FROM wide WHERE c1 > 3")
        assert len(gathers) == WIDTH

    def test_unreferenced_column_is_never_indexed(self, db):
        class Untouchable(np.ndarray):
            def __getitem__(self, index):
                raise AssertionError("an unreferenced column was indexed")

        base = db.get_table("wide")
        poisoned = [
            column if spec.name in ("dataset", "c3")
            else Column(column.sql_type, column.values.view(Untouchable), column.nulls)
            for spec, column in zip(base.schema, base.columns)
        ]
        db.register_table("wide", Table(base.schema, poisoned), replace=True)
        result = db.query("SELECT c3 FROM wide WHERE dataset = 'y'")
        assert result.num_rows == ROWS // 5

    def test_ungrouped_aggregate_reads_the_selection_in_place(self, db, gathers):
        base = db.get_table("wide")
        total = db.scalar("SELECT SUM(c2) FROM wide WHERE c1 IS NOT NULL")
        assert _names(base, gathers) == ["c2"]
        assert total == sum(
            r[2] for r in base.to_rows() if r[1] is not None and r[2] is not None
        )
        gathers.clear()
        assert db.scalar("SELECT COUNT(c2) FROM wide") == ROWS - ROWS // 7
        assert db.scalar("SELECT COUNT(c2) FROM wide WHERE c2 IS NOT NULL OR c2 IS NULL") == (
            ROWS - ROWS // 7
        )
        assert gathers == []

    def test_row_count_survives_a_statement_that_names_no_column(self, db):
        assert db.scalar("SELECT COUNT(*) FROM wide WHERE dataset = 'y'") == ROWS // 5
        assert db.query("SELECT 1 AS one FROM wide WHERE dataset = 'y'").to_rows() == (
            [(1,)] * (ROWS // 5)
        )


class TestSharing:
    def test_all_pass_where_shares_the_base_columns(self, db, gathers):
        base = db.get_table("wide")
        result = db.query("SELECT dataset, c2 FROM wide WHERE dataset IN ('x', 'y')")
        assert gathers == []
        for name in ("dataset", "c2"):
            assert np.shares_memory(result.column(name).values, base.column(name).values)
            assert np.shares_memory(result.column(name).nulls, base.column(name).nulls)

    def test_insert_and_delete_leave_an_earlier_result_unchanged(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b VARCHAR)")
        db.execute("INSERT INTO t VALUES (1, 'p'), (2, 'q')")
        before = db.query("SELECT a, b FROM t WHERE a > 0")
        assert np.shares_memory(before.column("a").values, db.get_table("t").column("a").values)
        db.execute("INSERT INTO t VALUES (3, 'r')")
        db.execute("DELETE FROM t WHERE a = 1")
        assert before.to_rows() == [(1, "p"), (2, "q")]
        assert db.query("SELECT a, b FROM t WHERE a > 0").to_rows() == [(2, "q"), (3, "r")]

    def test_udf_boundary_copies(self, db):
        base = db.get_table("wide")
        result = db.query("SELECT c2 FROM wide WHERE dataset IN ('x', 'y')")
        handed_out = result.column("c2").to_numpy()
        handed_out[:] = -1.0
        assert base.column("c2").values[1] == 2.0


class TestLiteralsStayScalars:
    @pytest.fixture
    def no_literal_columns(self, monkeypatch):
        def refuse(self, value):
            raise AssertionError(f"a per-row column was built for the literal {value!r}")

        monkeypatch.setattr(executor._Evaluator, "_literal", refuse)

    @pytest.mark.parametrize("where", [
        "c1 > 3",
        "3 < c1",
        "dataset IN ('x', 'z', NULL)",
        "c1 NOT IN (1, 2.5)",
        "c1 BETWEEN 2 AND 30",
        "c1 NOT BETWEEN 2 AND 30 OR NOT dataset = 'y'",
        "c1 = NULL",
    ])
    def test_comparison_in_and_between_build_no_literal_column(self, db, no_literal_columns, where):
        db.query(f"SELECT c2 FROM wide WHERE {where}")

    def test_a_literal_output_column_owns_its_rows(self, db):
        result = db.query("SELECT 7 AS seven, NULL AS nothing, 'k' AS tag FROM wide WHERE c1 > 3")
        assert result.num_rows > 0
        for column in result.columns:
            assert column.values.flags.writeable and column.nulls.flags.writeable
            assert column.values.strides != (0,)
        assert set(result.to_rows()) == {(7, None, "k")}

    def test_literal_against_literal_still_has_one_value_per_row(self, db):
        assert db.query("SELECT c1 FROM wide WHERE 1 = 1").num_rows == ROWS
        assert db.query("SELECT c1 FROM wide WHERE 1 = 2").num_rows == 0
        assert db.query("SELECT c1 FROM wide WHERE NULL = 1").num_rows == 0
