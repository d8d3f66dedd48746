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
        assert int(col.nulls.sum()) == 1
        assert col.to_list() == [1.0, None, 3.0]

    def test_nan_becomes_null(self):
        col = Column.from_values(SQLType.REAL, [1.0, float("nan"), 3.0])
        assert int(col.nulls.sum()) == 1
        assert col[1] is None

    def test_from_numpy_absorbs_nan(self):
        col = Column.from_numpy(SQLType.REAL, np.array([1.0, np.nan]))
        assert int(col.nulls.sum()) == 1

    def test_from_numpy_casts_dtype(self):
        col = Column.from_numpy(SQLType.REAL, np.array([1, 2, 3]))
        assert col.values.dtype == np.float64

    def test_varchar_nulls(self):
        col = Column.from_values(SQLType.VARCHAR, ["a", None])
        assert col.to_list() == ["a", None]

    def test_empty(self):
        for sql_type in SQLType:
            col = Column.from_values(sql_type, [])
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


class TestDictionaryCoding:
    """A VARCHAR column is int codes into distinct labels plus the NULL mask."""

    @staticmethod
    def exact(col):
        return col.to_list(), col.nulls.tolist()

    def test_from_values_codes_each_label_once(self):
        col = Column.from_values(SQLType.VARCHAR, ["b", "a", None, "b"])
        assert col.labels.tolist().count("b") == 1
        assert col.labels[col.codes].tolist()[:2] == ["b", "a"]
        assert self.exact(col) == (["b", "a", None, "b"], [False, False, True, False])

    def test_from_codes_round_trips(self):
        col = Column.from_codes(np.array([1, 0, 1]), ["no", "yes"], np.array([False, True, False]))
        assert self.exact(col) == (["yes", None, "yes"], [False, True, False])
        assert self.exact(Column.from_values(SQLType.VARCHAR, col.to_list())) == self.exact(col)

    def test_take_gathers_codes(self):
        col = Column.from_values(SQLType.VARCHAR, ["a", None, "c", "a"])
        taken = col.take(np.array([3, 1, 2]))
        assert taken.labels is col.labels
        assert self.exact(taken) == (["a", None, "c"], [False, True, False])

    def test_concat_of_disjoint_dictionaries_remaps_the_second(self):
        a = Column.from_values(SQLType.VARCHAR, ["x", None, "y"])
        b = Column.from_values(SQLType.VARCHAR, ["q", "p", None, "q"])
        joined = a.concat(b)
        assert sorted(joined.labels.tolist()) == sorted(set(a.labels) | set(b.labels))
        assert self.exact(joined) == (
            ["x", None, "y", "q", "p", None, "q"],
            [False, True, False, False, False, True, False],
        )
        assert joined.codes[:3].tolist() == a.codes.tolist()

    def test_concat_of_shared_labels(self):
        a = Column.from_values(SQLType.VARCHAR, ["x", "y"])
        assert self.exact(a.concat(a.take(np.array([1])))) == (["x", "y", "y"], [False] * 3)

    @pytest.mark.parametrize("sql_type, values", [
        (SQLType.INT, [3, None, -7]),
        (SQLType.REAL, [1.5, None, -0.25]),
        (SQLType.BOOL, [True, None, False]),
    ])
    def test_cast_to_varchar_and_back(self, sql_type, values):
        col = Column.from_values(sql_type, values)
        text = col.cast(SQLType.VARCHAR)
        assert text.codes is not None and text.nulls.tolist() == [False, True, False]
        assert self.exact(text.cast(sql_type)) == self.exact(col)

    def test_cast_to_varchar_itself_copies_codes(self):
        col = Column.from_values(SQLType.VARCHAR, ["a", None])
        copy = col.cast(SQLType.VARCHAR)
        assert not np.shares_memory(copy.codes, col.codes)
        assert self.exact(copy) == self.exact(col)

    def test_all_null_column(self):
        col = Column.from_values(SQLType.VARCHAR, [None, None])
        assert self.exact(col) == ([None, None], [True, True])
        assert col.distinct() == []

    def test_values_are_read_only(self):
        col = Column.from_values(SQLType.VARCHAR, ["a", "b"])
        with pytest.raises(ValueError):
            col.values[0] = "z"
        with pytest.raises(ValueError):
            col.labels[0] = "z"
        with pytest.raises(AttributeError):
            col.values = np.array(["z", "z"], dtype=object)
        assert col.to_list() == ["a", "b"]

    def test_distinct_reads_only_the_non_null_rows(self):
        col = Column.from_values(SQLType.VARCHAR, ["b", None, "a", "b"])
        assert col.distinct() == ["a", "b"]
        # A label that only filtered-out rows held is not listed.
        assert col.take(np.array([0, 1])).distinct() == ["b"]


class TestToList:
    """One C pass, the same Python scalars as indexing row by row."""

    @pytest.mark.parametrize("sql_type, values", [
        (SQLType.INT, [1, None, 2**62]),
        (SQLType.REAL, [0.5, None, -3.0]),
        (SQLType.BOOL, [None, True, False]),
        (SQLType.VARCHAR, ["a", None, ""]),
    ])
    def test_matches_row_access(self, sql_type, values):
        col = Column.from_values(sql_type, values)
        listed = col.to_list()
        assert listed == values == [col[i] for i in range(len(col))]
        assert [type(v) for v in listed] == [type(col[i]) for i in range(len(col))]


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
