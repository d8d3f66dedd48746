"""Query execution: projections, filters, NULL semantics."""

import pytest

from repro.engine.database import Database
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.errors import ExecutionError, TypeMismatchError


@pytest.fixture()
def db():
    database = Database()
    schema = Schema([
        ("a", SQLType.INT), ("b", SQLType.REAL), ("c", SQLType.VARCHAR), ("d", SQLType.BOOL),
    ])
    database.register_table("t", Table.from_rows(schema, [
        (1, 1.5, "x", True), (2, None, "y", False), (3, 3.5, None, True), (4, 4.5, "x", None),
    ]))
    return database


def _labels(db, name, labels):
    """Register ``name`` as one VARCHAR column ``n`` holding ``labels``."""
    schema = Schema([("n", SQLType.VARCHAR)])
    db.register_table(name, Table.from_rows(schema, [(label,) for label in labels]))


class TestProjection:
    def test_star(self, db):
        assert db.query("SELECT * FROM t").num_rows == 4

    def test_expressions(self, db):
        rows = db.query("SELECT a * 2 AS twice, a + b AS s FROM t").to_rows()
        assert rows[0] == (2, 2.5)
        assert rows[1] == (4, None)  # NULL propagates through +

    def test_division_is_real_and_null_on_zero(self, db):
        rows = db.query("SELECT a / 2 AS h, a / 0 AS z FROM t").to_rows()
        assert rows[0] == (0.5, None)

    def test_case_expression(self, db):
        rows = db.query(
            "SELECT CASE WHEN a < 3 THEN 'low' ELSE 'high' END AS tier FROM t"
        ).to_rows()
        assert [r[0] for r in rows] == ["low", "low", "high", "high"]

    def test_cast(self, db):
        rows = db.query("SELECT CAST(a AS VARCHAR) AS s FROM t").to_rows()
        assert rows[0] == ("1",)

    def test_scalar_functions(self, db):
        rows = db.query("SELECT ABS(-a) AS p, SQRT(b) AS r FROM t").to_rows()
        assert rows[0][0] == 1
        assert rows[0][1] == pytest.approx(1.2247, abs=1e-3)

    def test_sqrt_of_negative_is_null(self, db):
        assert db.scalar("SELECT SQRT(0 - 4.0) FROM t WHERE a = 1") is None

    def test_coalesce(self, db):
        rows = db.query("SELECT COALESCE(b, 0.0) AS v FROM t").to_rows()
        assert [r[0] for r in rows] == [1.5, 0.0, 3.5, 4.5]

    def test_string_functions(self, db):
        rows = db.query("SELECT UPPER(c) AS u, LENGTH(c) AS n FROM t WHERE c IS NOT NULL").to_rows()
        assert rows[0] == ("X", 1)


class TestWhere:
    def test_comparison(self, db):
        assert db.query("SELECT a FROM t WHERE a >= 3").num_rows == 2

    def test_null_comparison_filters_out(self, db):
        # b = NULL row: comparison yields NULL -> excluded
        assert db.query("SELECT a FROM t WHERE b > 0").num_rows == 3

    def test_is_null(self, db):
        assert db.query("SELECT a FROM t WHERE b IS NULL").to_rows() == [(2,)]
        assert db.query("SELECT a FROM t WHERE b IS NOT NULL").num_rows == 3

    def test_in_list(self, db):
        assert db.query("SELECT a FROM t WHERE c IN ('x')").num_rows == 2
        assert db.query("SELECT a FROM t WHERE a NOT IN (1, 2)").num_rows == 2

    def test_between(self, db):
        assert db.query("SELECT a FROM t WHERE a BETWEEN 2 AND 3").num_rows == 2

    def test_boolean_column(self, db):
        assert db.query("SELECT a FROM t WHERE d").num_rows == 2
        assert db.query("SELECT a FROM t WHERE NOT d").num_rows == 1

    def test_kleene_and(self, db):
        # FALSE AND NULL is FALSE, so the d-NULL row is excluded, not an error.
        assert db.query("SELECT a FROM t WHERE d AND b IS NULL").to_rows() == []

    def test_kleene_or(self, db):
        # TRUE OR NULL is TRUE: row 4 (d NULL) qualifies via a = 4.
        assert db.query("SELECT a FROM t WHERE d OR a = 4").num_rows == 3

    def test_a_filter_on_a_column_named_left(self):
        """The words of statements the engine does not parse (JOIN, ORDER
        BY, INSERT ... VALUES, DROP ... IF EXISTS) are not reserved: a
        column may be called ``left`` or ``values``."""
        database = Database()
        names = ("left", "order", "desc", "values", "exists", "drop")
        database.register_table("s", Table.from_rows(
            Schema([(name, SQLType.INT) for name in names]),
            [(1, 2, 3, 4, 5, 6), (4, 5, 6, 7, 8, None)],
        ))
        rows = database.query(
            "SELECT order, values FROM s "
            "WHERE left = 1 AND desc > 0 AND exists < 6 AND drop IS NOT NULL"
        )
        assert rows.to_rows() == [(2, 4)]


class TestColumnResolution:
    def test_qualified_reference_to_plain_table(self, db):
        """`t.column` resolves to the bare column: a filter may qualify one."""
        assert db.query("SELECT t.a FROM t WHERE t.a = 1").to_rows() == [(1,)]

    def test_qualifier_on_plain_source_is_not_validated(self, db):
        """Documented leniency: the source carries no alias at evaluation
        time, so a dotted reference resolves by its bare column name
        regardless of the qualifier."""
        assert db.query("SELECT ghost.a FROM t WHERE ghost.a = 1").to_rows() == [(1,)]

    def test_unknown_bare_reference(self, db):
        with pytest.raises(ExecutionError, match="no such column"):
            db.query("SELECT nonexistent FROM t")


class TestLike:
    def test_prefix_and_suffix(self, db):
        _labels(db, "names", ["lefthippocampus", "righthippocampus", "brainstem", None])
        rows = db.query("SELECT n FROM names WHERE n LIKE '%hippocampus'").to_rows()
        assert len(rows) == 2
        rows = db.query("SELECT n FROM names WHERE n LIKE 'left%'").to_rows()
        assert rows == [("lefthippocampus",)]

    def test_underscore_single_character(self, db):
        _labels(db, "codes", ["ab1", "ab22", "ab3"])
        rows = db.query("SELECT n FROM codes WHERE n LIKE 'ab_'").to_rows()
        assert {r[0] for r in rows} == {"ab1", "ab3"}

    def test_not_like_excludes_nulls(self, db):
        _labels(db, "names2", ["x", None])
        rows = db.query("SELECT n FROM names2 WHERE n NOT LIKE 'y%'").to_rows()
        assert rows == [("x",)]  # NULL LIKE anything is NULL -> filtered

    def test_regex_metacharacters_are_literal(self, db):
        _labels(db, "weird", ["a.b", "axb"])
        rows = db.query("SELECT n FROM weird WHERE n LIKE 'a.b'").to_rows()
        assert rows == [("a.b",)]

    def test_like_on_numeric_rejected(self, db):
        with pytest.raises(TypeMismatchError):
            db.query("SELECT a FROM t WHERE a LIKE '1%'")
