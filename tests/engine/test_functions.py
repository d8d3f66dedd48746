"""Scalar function coverage."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.errors import ExecutionError, TypeMismatchError


@pytest.fixture()
def db():
    database = Database()
    schema = Schema([("x", SQLType.REAL), ("s", SQLType.VARCHAR)])
    database.register_table("t", Table.from_rows(schema, [
        (4.0, " pad "), (-2.25, "Beta"), (None, None), (100.0, "alpha"),
    ]))
    return database


class TestScalarFunctions:
    def test_round_sign_floor_ceil(self, db):
        rows = db.query(
            "SELECT ROUND(x) AS r, SIGN(x) AS g, FLOOR(x) AS f, CEIL(x) AS c "
            "FROM t WHERE x IS NOT NULL"
        ).to_rows()
        rows.sort()  # ROUND is monotonic: sorting the rows sorts them by x
        assert rows[0] == (-2.0, -1.0, -3, -2)
        assert rows[1] == (4.0, 1.0, 4, 4)

    def test_log_family(self, db):
        rows = db.query(
            "SELECT LN(x) AS l, LOG10(x) AS t, EXP(0.0) AS e FROM t WHERE x = 100.0"
        ).to_rows()
        assert rows[0][0] == pytest.approx(np.log(100.0))
        assert rows[0][1] == pytest.approx(2.0)
        assert rows[0][2] == pytest.approx(1.0)

    def test_ln_of_nonpositive_is_null(self, db):
        assert db.scalar("SELECT LN(x) FROM t WHERE x = -2.25") is None
        assert db.scalar("SELECT LN(0.0) FROM t WHERE x = 4.0") is None

    def test_power(self, db):
        assert db.scalar("SELECT POWER(2.0, 10) FROM t WHERE x = 4.0") == 1024.0
        assert db.scalar("SELECT POW(4.0, 0.5) FROM t WHERE x = 4.0") == 2.0

    def test_trim(self, db):
        assert db.scalar("SELECT TRIM(s) FROM t WHERE x = 4.0") == "pad"

    def test_coalesce_three_args(self, db):
        rows = sorted(db.query("SELECT COALESCE(NULL, x, 0.0) AS v FROM t").to_rows())
        assert rows[0] == (-2.25,)
        assert (0.0,) in rows  # the all-NULL row

    def test_function_arity_errors(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT ABS(x, x) FROM t")
        with pytest.raises(ExecutionError):
            db.query("SELECT COALESCE() FROM t")

    def test_type_errors(self, db):
        with pytest.raises(TypeMismatchError):
            db.query("SELECT SQRT(s) FROM t")
        with pytest.raises(TypeMismatchError):
            db.query("SELECT UPPER(x) FROM t")
