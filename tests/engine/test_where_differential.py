"""Engine == reference SQL, first slice: WHERE trees against stdlib sqlite3.

Hypothesis draws a small table (REAL/INT/VARCHAR/BOOL with NULLs) and a
predicate tree as SQL text; the same text runs through the engine and through
an in-memory SQLite database and the results are compared row for row.  The
trees stay inside what both dialects define identically: comparisons are
type-consistent (the engine raises on VARCHAR-vs-number, SQLite orders by
storage class), strings are ASCII and reals are dyadic so sums are exact.
The INT column ``g`` holds neighbours at and past 2**53, where a float64 cast
would make distinct integers compare equal.

The VARCHAR column ``s`` is dictionary-coded and its predicates run once per
label: string literals include ones absent from every dictionary, leaves
include LIKE, and the tables also come as an all-NULL ``s`` and as two
loads with disjoint label sets.  The reference runs with
``case_sensitive_like`` on, as the engine's LIKE is.

The engine runs no aggregating statement: a local step selects its view and
reduces the rows in its body.  The ``ungrouped_aggregate`` shape does the
same (:func:`_reduced`) and compares the result with SQLite's aggregates.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.udfgen.runtime import Relation

from tests.conftest import EXAMPLE_SCALE

SCHEMA = Schema([
    ("k", SQLType.INT), ("r", SQLType.REAL), ("i", SQLType.INT),
    ("s", SQLType.VARCHAR), ("b", SQLType.BOOL), ("g", SQLType.INT),
])

# ------------------------------------------------------------------ strategies

_NUMBERS = ["-1", "0", "1", "2", "3", "0.5", "1.5", "-0.25"]
_STRINGS = ["''", "'a'", "'ab'", "'b'", "'aa'", "'zz'"]  # the last two are in no row
_PATTERNS = ["'a%'", "'%b'", "'_'", "'%'", "'z%'", "'a_'", "''"]
_BOOLS = ["TRUE", "FALSE"]
_GIANT_VALUES = [2**53 + 1, 2**53, 2**53 - 1, -(2**53 + 1), 1]
_GIANTS = [str(value) for value in _GIANT_VALUES]
_OPS = ["=", "<>", "<", "<=", ">", ">="]


def _nullable(values):
    return st.one_of(st.none(), st.sampled_from(values))


rows_strategy = st.lists(
    st.tuples(
        _nullable([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
        _nullable([-1, 0, 1, 2, 3]),
        _nullable(["", "a", "ab", "b"]),
        _nullable([True, False]),
        _nullable(_GIANT_VALUES),
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


_numeric_column = st.sampled_from(["r", "i", "g"])
leaves = st.one_of(
    _typed(_numeric_column, _NUMBERS),
    _typed(st.sampled_from(["i", "g"]), _GIANTS),
    _typed(st.just("s"), _STRINGS),
    st.builds("(s {}LIKE {})".format, st.sampled_from(["", "NOT "]), st.sampled_from(_PATTERNS)),
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


_COLUMNS = "(k INTEGER, r REAL, i INTEGER, s TEXT, b BOOLEAN, g INTEGER)"


def _both(rows):
    engine = Database()
    engine.register_table("t", Table.from_rows(SCHEMA, rows))
    reference = _reference()
    reference.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", rows)
    return engine, reference


def _reference():
    reference = sqlite3.connect(":memory:")
    reference.execute("PRAGMA case_sensitive_like = ON")
    reference.execute(f"CREATE TABLE t {_COLUMNS}")
    return reference


def _inserted(rows):
    """``t`` loaded in two parts whose ``s`` labels are disjoint: rows
    holding '' or 'a' first, then the rest, concatenated as a worker loads a
    second dataset.  Each part codes its own dictionary, and the second
    merges into the first's."""
    first = [row for row in rows if row[3] in ("", "a")]
    second = [row for row in rows if row[3] not in ("", "a")]
    engine = Database()
    table = Table.from_rows(SCHEMA, first).concat(Table.from_rows(SCHEMA, second))
    engine.register_table("t", table)
    reference = _reference()
    for part in (first, second):
        reference.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", part)
    return engine, reference


def _agree(rows, shape, where, build=_both):
    engine, reference = build(rows)
    try:
        expected = reference.execute(SHAPES[shape].format(w=where)).fetchall()
    finally:
        reference.close()
    if shape == "ungrouped_aggregate":
        actual = _reduced(engine.query(f"SELECT r, i, s FROM t WHERE {where}"))
    else:
        actual = engine.query(SHAPES[shape].format(w=where)).to_rows()
    # bool == int and int == float in Python, so tuples compare across the
    # two engines' scalar types without normalising.
    assert actual == expected, (shape, where)


def _reduced(view: Table) -> list[tuple]:
    """SQLite's aggregate row, computed as a local step computes it: numpy
    over the relation its body is handed, where NULL reads as NaN (or None)."""
    data = Relation.of(view)
    r, i = data["r"], data["i"]
    r = r[~np.isnan(r)]
    i = i[~np.isnan(i)]
    labels = [label for label in data["s"] if label is not None]
    return [(
        len(data),
        len(r),
        i.sum() if len(i) else None,
        r.min() if len(r) else None,
        max(labels) if labels else None,
        r.mean() if len(r) else None,
    )]


SHAPES = {
    "projected_subset": "SELECT r, s FROM t WHERE {w}",
    "star": "SELECT * FROM t WHERE {w}",
    "ungrouped_aggregate": (
        "SELECT COUNT(*), COUNT(r), SUM(i), MIN(r), MAX(s), AVG(r) FROM t WHERE {w}"
    ),
    "expression_items": "SELECT k, r + i, s IS NULL FROM t WHERE {w}",
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=60 * EXAMPLE_SCALE, deadline=None)
@given(rows=rows_strategy, where=where_strategy)
def test_select_matches_sqlite(shape, rows, where):
    _agree(rows, shape, where)


ROWS = [
    (0, 1.5, 1, "a", True, 2**53 + 1),
    (1, None, 2, "b", False, 2**53),
    (2, 0.5, None, None, None, 1),
    (3, 2.0, 3, "ab", True, None),
    (4, None, None, "", None, -(2**53 + 1)),
]


@pytest.mark.parametrize("where", [
    # the data-view shape of core/context.py:view_query
    "s IN ('a', 'ab', 'b') AND r IS NOT NULL AND i IS NOT NULL",
    "s NOT IN ('a', NULL)",
    # literals in no row's dictionary
    "s = 'zz'",
    "s <> 'zz'",
    "s < 'aa'",
    "'aa' < s",
    "s IN ('zz', 'aa')",
    "s NOT IN ('zz', 'aa')",
    "s NOT IN ('zz', NULL)",
    "s LIKE 'z%'",
    "s NOT LIKE 'z%'",
    "s LIKE 'a%' OR s LIKE '_'",
    "r NOT IN (1.5, NULL) OR b",
    "NOT (r BETWEEN 1 AND 2) AND NOT (i IS NULL)",
    "2 > i AND 'a' <= s",
    "NULL = r",
    "1 = 1 AND 'a' < 'b' AND TRUE",
    "NOT b AND NOT NULL = i",
    "k >= 0",
    "k < 0",
    "g = 9007199254740993",
    "g IN (9007199254740993)",
    "g > 9007199254740992",
    "g <> 9007199254740992",
    "g BETWEEN 9007199254740992 AND 9007199254740992",
])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pinned_predicates(shape, where):
    _agree(ROWS, shape, where)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=60 * EXAMPLE_SCALE, deadline=None)
@given(rows=rows_strategy, where=where_strategy)
def test_select_matches_sqlite_after_inserts_from_disjoint_sources(shape, rows, where):
    _agree(rows, shape, where, build=_inserted)


ALL_NULL_S = [(k, r, i, None, b, g) for k, r, i, _s, b, g in ROWS]


@pytest.mark.parametrize("where", [
    "s = 'a'", "s <> 'zz'", "s < 'b'", "s IN ('a', 'zz')", "s NOT IN ('a')",
    "s NOT IN ('a', NULL)", "s LIKE '%'", "s NOT LIKE 'a%'", "s IS NULL",
    "NOT (s = 'a') OR k > 2",
])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_all_null_varchar_column(shape, where):
    _agree(ALL_NULL_S, shape, where)
