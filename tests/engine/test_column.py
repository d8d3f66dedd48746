"""Columnar storage and NULL-mask semantics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.column import Column
from repro.engine.types import SQLType
from repro.errors import TypeMismatchError


class TestConstruction:
    def test_from_values_with_nulls(self):
        col = Column.from_values(SQLType.REAL, [1.0, None, 3.0])
        assert len(col) == 3
        assert col.null_count == 1
        assert col.to_list() == [1.0, None, 3.0]

    def test_nan_becomes_null(self):
        col = Column.from_values(SQLType.REAL, [1.0, float("nan"), 3.0])
        assert col.null_count == 1
        assert col[1] is None

    def test_from_numpy_absorbs_nan(self):
        col = Column.from_numpy(SQLType.REAL, np.array([1.0, np.nan]))
        assert col.null_count == 1

    def test_from_numpy_casts_dtype(self):
        col = Column.from_numpy(SQLType.REAL, np.array([1, 2, 3]))
        assert col.values.dtype == np.float64

    def test_varchar_nulls(self):
        col = Column.from_values(SQLType.VARCHAR, ["a", None])
        assert col.to_list() == ["a", None]

    def test_empty(self):
        col = Column.empty(SQLType.INT)
        assert len(col) == 0
        assert col.to_list() == []

    def test_ragged_mask_rejected(self):
        with pytest.raises(TypeMismatchError):
            Column(SQLType.INT, np.array([1, 2]), np.array([False]))


class TestAccess:
    def test_getitem_python_scalars(self):
        col = Column.from_values(SQLType.INT, [5])
        assert isinstance(col[0], int)
        col = Column.from_values(SQLType.BOOL, [True])
        assert isinstance(col[0], bool)

    def test_to_numpy_nulls_to_nan(self):
        col = Column.from_values(SQLType.INT, [1, None])
        arr = col.to_numpy()
        assert arr.dtype == np.float64
        assert np.isnan(arr[1])

    def test_to_numpy_no_nulls_preserves_dtype(self):
        col = Column.from_values(SQLType.INT, [1, 2])
        assert col.to_numpy().dtype == np.int64

    def test_non_null(self):
        col = Column.from_values(SQLType.REAL, [1.0, None, 3.0])
        assert list(col.non_null()) == [1.0, 3.0]


class TestCombinators:
    def test_take(self):
        col = Column.from_values(SQLType.INT, [10, 20, 30])
        taken = col.take(np.array([2, 0]))
        assert taken.to_list() == [30, 10]

    def test_concat(self):
        a = Column.from_values(SQLType.INT, [1, None])
        b = Column.from_values(SQLType.INT, [3])
        assert a.concat(b).to_list() == [1, None, 3]

    def test_concat_type_mismatch(self):
        a = Column.from_values(SQLType.INT, [1])
        b = Column.from_values(SQLType.REAL, [1.0])
        with pytest.raises(TypeMismatchError):
            a.concat(b)


class TestCast:
    def test_int_to_real(self):
        col = Column.from_values(SQLType.INT, [1, None]).cast(SQLType.REAL)
        assert col.sql_type == SQLType.REAL
        assert col.to_list() == [1.0, None]

    def test_real_to_varchar(self):
        col = Column.from_values(SQLType.REAL, [1.5]).cast(SQLType.VARCHAR)
        assert col.to_list() == ["1.5"]

    def test_varchar_to_int(self):
        col = Column.from_values(SQLType.VARCHAR, ["42"]).cast(SQLType.INT)
        assert col.to_list() == [42]

    def test_varchar_to_bool(self):
        col = Column.from_values(SQLType.VARCHAR, ["true", "0"]).cast(SQLType.BOOL)
        assert col.to_list() == [True, False]

    def test_bad_bool_cast(self):
        with pytest.raises(TypeMismatchError):
            Column.from_values(SQLType.VARCHAR, ["maybe"]).cast(SQLType.BOOL)

    def test_null_propagates(self):
        col = Column.from_values(SQLType.INT, [None]).cast(SQLType.VARCHAR)
        assert col.to_list() == [None]


@given(st.lists(st.one_of(st.none(), st.integers(-10**9, 10**9))))
def test_roundtrip_int_values(values):
    """from_values/to_list is the identity for INT columns with NULLs."""
    col = Column.from_values(SQLType.INT, values)
    assert col.to_list() == values


@given(st.lists(st.one_of(st.none(), st.text(max_size=10))))
def test_roundtrip_varchar_values(values):
    col = Column.from_values(SQLType.VARCHAR, values)
    assert col.to_list() == values
