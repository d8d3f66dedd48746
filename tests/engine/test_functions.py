"""Scalar and aggregate function coverage."""

import numpy as np
import pytest

from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.functions import aggregate, aggregate_result_type
from repro.engine.types import SQLType
from repro.errors import ExecutionError, TypeMismatchError


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE t (x REAL, s VARCHAR)")
    database.execute(
        "INSERT INTO t VALUES (4.0, ' pad '), (-2.25, 'Beta'), (NULL, NULL), (100.0, 'alpha')"
    )
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


class TestAggregateFunctions:
    def test_varchar_min_max(self, db):
        row = db.query("SELECT MIN(s) AS lo, MAX(s) AS hi FROM t").to_rows()[0]
        assert row == (" pad ", "alpha")  # lexicographic: space < uppercase < lowercase

    def test_var_samp(self, db):
        value = db.scalar("SELECT VAR_SAMP(x) FROM t")
        data = np.array([4.0, -2.25, 100.0])
        assert value == pytest.approx(data.var(ddof=1))

    def test_stddev_single_value_is_null(self, db):
        assert db.scalar("SELECT STDDEV(x) FROM t WHERE x = 4.0") is None

    def test_unknown_aggregate_internal(self):
        column = Column.from_values(SQLType.INT, [1])
        with pytest.raises(ExecutionError):
            aggregate("MEDIAN", column, 1)

    def test_result_types(self):
        assert aggregate_result_type("COUNT", None) == SQLType.INT
        assert aggregate_result_type("SUM", SQLType.INT) == SQLType.INT
        assert aggregate_result_type("AVG", SQLType.INT) == SQLType.REAL
        assert aggregate_result_type("MIN", SQLType.VARCHAR) == SQLType.VARCHAR
        with pytest.raises(ExecutionError):
            aggregate_result_type("SUM", None)
