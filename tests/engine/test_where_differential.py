"""Engine == reference SQL, first slice: WHERE trees against stdlib sqlite3.

Hypothesis draws a small table (REAL/INT/VARCHAR/BOOL with NULLs) and a
predicate tree as SQL text; the same text runs through the engine and through
an in-memory SQLite database and the results are compared row for row.  The
trees stay inside what both dialects define identically: comparisons are
type-consistent (the engine raises on VARCHAR-vs-number, SQLite orders by
storage class), strings are ASCII, reals are dyadic so sums are exact, and
ORDER BY uses the non-NULL row id ``k`` (the engine sorts NULLs last, SQLite
first).
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType

SCHEMA = Schema([
    ("k", SQLType.INT), ("r", SQLType.REAL), ("i", SQLType.INT),
    ("s", SQLType.VARCHAR), ("b", SQLType.BOOL),
])

# ------------------------------------------------------------------ strategies

_NUMBERS = ["-1", "0", "1", "2", "3", "0.5", "1.5", "-0.25"]
_STRINGS = ["''", "'a'", "'ab'", "'b'"]
_BOOLS = ["TRUE", "FALSE"]
_OPS = ["=", "<>", "<", "<=", ">", ">="]


def _nullable(values):
    return st.one_of(st.none(), st.sampled_from(values))


rows_strategy = st.lists(
    st.tuples(
        _nullable([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
        _nullable([-1, 0, 1, 2, 3]),
        _nullable(["", "a", "ab", "b"]),
        _nullable([True, False]),
    ),
    max_size=12,
).map(lambda rows: [(k, *row) for k, row in enumerate(rows)])


def _typed(column_strategy, literals):
    """Leaves over one type family: comparisons with the literal on either
    side, IN/NOT IN (possibly holding a NULL), IS [NOT] NULL, BETWEEN."""
    literal = st.sampled_from(literals + ["NULL"])
    negation = st.sampled_from(["", "NOT "])
    return st.one_of(
        st.builds("({} {} {})".format, column_strategy, st.sampled_from(_OPS), literal),
        st.builds("({} {} {})".format, literal, st.sampled_from(_OPS), column_strategy),
        st.builds(
            lambda col, neg, items: f"({col} {neg}IN ({', '.join(items)}))",
            column_strategy, negation, st.lists(literal, min_size=1, max_size=3),
        ),
        st.builds("({} IS {}NULL)".format, column_strategy, negation),
        st.builds("({} {}BETWEEN {} AND {})".format, column_strategy, negation, literal, literal),
    )


_numeric_column = st.sampled_from(["r", "i"])
leaves = st.one_of(
    _typed(_numeric_column, _NUMBERS),
    _typed(st.just("s"), _STRINGS),
    st.builds("({} {} {})".format, _numeric_column, st.sampled_from(_OPS), _numeric_column),
    st.builds("(b {} {})".format, st.sampled_from(["=", "<>"]), st.sampled_from(_BOOLS + ["NULL"])),
    st.builds("({} = b)".format, st.sampled_from(_BOOLS)),
    st.sampled_from(["b", "(b IS NULL)", "(b IS NOT NULL)", "(b IN (TRUE, NULL))"]),
)

where_strategy = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds("({} AND {})".format, children, children),
        st.builds("({} OR {})".format, children, children),
        st.builds("(NOT {})".format, children),
    ),
    max_leaves=6,
)

# --------------------------------------------------------------------- harness


def _both(rows):
    engine = Database()
    engine.register_table("t", Table.from_rows(SCHEMA, rows))
    reference = sqlite3.connect(":memory:")
    reference.execute("CREATE TABLE t (k INTEGER, r REAL, i INTEGER, s TEXT, b BOOLEAN)")
    reference.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", rows)
    return engine, reference


def _agree(rows, sql):
    engine, reference = _both(rows)
    try:
        expected = reference.execute(sql).fetchall()
    finally:
        reference.close()
    # bool == int and int == float in Python, so tuples compare across the
    # two engines' scalar types without normalising.
    assert engine.query(sql).to_rows() == expected, sql


SHAPES = {
    "projected_subset": "SELECT r, s FROM t WHERE {w}",
    "star": "SELECT * FROM t WHERE {w}",
    "order_by_unprojected": "SELECT i, b FROM t WHERE {w} ORDER BY k DESC",
    "ungrouped_aggregate": (
        "SELECT COUNT(*), COUNT(r), SUM(i), MIN(r), MAX(s), AVG(r) FROM t WHERE {w}"
    ),
    "limit": "SELECT k, r FROM t WHERE {w} LIMIT 3",
    "order_limit": "SELECT s FROM t WHERE {w} ORDER BY k DESC LIMIT 2",
    "expression_items": "SELECT k, r + i, s IS NULL FROM t WHERE {w}",
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, where=where_strategy)
def test_select_matches_sqlite(shape, rows, where):
    _agree(rows, SHAPES[shape].format(w=where))


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, where=where_strategy)
def test_delete_matches_sqlite(rows, where):
    engine, reference = _both(rows)
    statement = f"DELETE FROM t WHERE {where}"
    try:
        reference.execute(statement)
        expected = reference.execute("SELECT * FROM t").fetchall()
    finally:
        reference.close()
    engine.execute(statement)
    assert engine.query("SELECT * FROM t").to_rows() == expected, statement


ROWS = [
    (0, 1.5, 1, "a", True),
    (1, None, 2, "b", False),
    (2, 0.5, None, None, None),
    (3, 2.0, 3, "ab", True),
    (4, None, None, "", None),
]


@pytest.mark.parametrize("where", [
    # the data-view shape of core/context.py:view_query
    "s IN ('a', 'ab', 'b') AND r IS NOT NULL AND i IS NOT NULL",
    "s NOT IN ('a', NULL)",
    "r NOT IN (1.5, NULL) OR b",
    "NOT (r BETWEEN 1 AND 2) AND NOT (i IS NULL)",
    "2 > i AND 'a' <= s",
    "NULL = r",
    "1 = 1 AND 'a' < 'b' AND TRUE",
    "NOT b AND NOT NULL = i",
    "k >= 0",
    "k < 0",
])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pinned_predicates(shape, where):
    _agree(ROWS, SHAPES[shape].format(w=where))
