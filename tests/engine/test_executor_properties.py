"""Property-based engine tests: vectorized execution vs a row-at-a-time
reference interpreter with SQL NULL semantics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import expressions as ast
from repro.engine.database import Database
from repro.engine.executor import evaluate
from repro.engine.parser import parse_expression
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType

# ----------------------------------------------------------------- reference


def reference_eval(expr: ast.Expression, row: dict):
    """Scalar, three-valued-logic reference semantics."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        return row[expr.name]
    if isinstance(expr, ast.UnaryOp):
        value = reference_eval(expr.operand, row)
        if expr.op == "NOT":
            return None if value is None else (not value)
        return None if value is None else -value
    if isinstance(expr, ast.IsNull):
        value = reference_eval(expr.operand, row)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        left = reference_eval(expr.left, row)
        right = reference_eval(expr.right, row)
        if op == "AND":
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return left and right
        if op == "OR":
            if left is True or right is True:
                return True
            if left is None or right is None:
                return None
            return left or right
        if left is None or right is None:
            return None
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return None if right == 0 else left / right
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    if isinstance(expr, ast.CaseWhen):
        for condition, value in expr.branches:
            if reference_eval(condition, row) is True:
                return reference_eval(value, row)
        if expr.otherwise is not None:
            return reference_eval(expr.otherwise, row)
        return None
    raise NotImplementedError(type(expr).__name__)


# ---------------------------------------------------------------- strategies

numbers = st.one_of(
    st.none(),
    st.integers(-100, 100).map(float),
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


def expressions(depth: int = 3):
    base = st.one_of(
        st.sampled_from([ast.ColumnRef("a"), ast.ColumnRef("b")]),
        st.integers(-10, 10).map(lambda v: ast.Literal(float(v))),
        st.just(ast.Literal(None)),
    )
    if depth == 0:
        return base
    sub = expressions(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), sub, sub).map(
            lambda t: ast.BinaryOp(t[0], t[1], t[2])
        ),
        sub.map(lambda e: ast.UnaryOp("-", e)),
    )


def predicates(depth: int = 2):
    comparison = st.tuples(
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        expressions(1), expressions(1),
    ).map(lambda t: ast.BinaryOp(t[0], t[1], t[2]))
    is_null = expressions(1).map(lambda e: ast.IsNull(e))
    base = st.one_of(comparison, is_null)
    if depth == 0:
        return base
    sub = predicates(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["AND", "OR"]), sub, sub).map(
            lambda t: ast.BinaryOp(t[0], t[1], t[2])
        ),
        sub.map(lambda e: ast.UnaryOp("NOT", e)),
    )


def make_table(rows):
    schema = Schema([("a", SQLType.REAL), ("b", SQLType.REAL)])
    return Table.from_rows(schema, rows)


def close(x, y) -> bool:
    if x is None or y is None:
        return x is None and y is None
    if isinstance(x, bool) or isinstance(y, bool):
        return x == y
    if math.isinf(x) or math.isinf(y):
        return True  # reference may overflow where the engine nulls
    return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)


# -------------------------------------------------------------------- tests


@settings(max_examples=150, deadline=None)
@given(
    expr=expressions(3),
    rows=st.lists(st.tuples(numbers, numbers), min_size=1, max_size=6),
)
def test_arithmetic_matches_reference(expr, rows):
    table = make_table(rows)
    column = evaluate(expr, table)
    for index, (a, b) in enumerate(rows):
        try:
            expected = reference_eval(expr, {"a": a, "b": b})
        except OverflowError:
            continue
        if expected is not None and (
            isinstance(expected, float) and (math.isnan(expected) or math.isinf(expected))
        ):
            expected = None  # engine renders non-finite results as NULL
        assert close(column[index], expected), (
            f"row {index}: {expr} -> {column[index]} != {expected}"
        )


@settings(max_examples=150, deadline=None)
@given(
    predicate=predicates(2),
    rows=st.lists(st.tuples(numbers, numbers), min_size=1, max_size=6),
)
def test_where_matches_reference_filter(predicate, rows):
    database = Database()
    database.register_table("t", make_table(rows))
    select = f"SELECT a, b FROM t WHERE {predicate}"
    result = database.query(select)
    expected = [
        (a, b) for a, b in rows
        if reference_eval(predicate, {"a": a, "b": b}) is True
    ]

    def normalize(row):
        return tuple(None if v is None else round(v, 9) for v in row)

    assert [normalize(r) for r in result.to_rows()] == [normalize(r) for r in expected]


@settings(max_examples=100, deadline=None)
@given(predicate=predicates(2))
def test_expression_string_roundtrip(predicate):
    """str(expr) re-parses to an expression with identical semantics."""
    reparsed = parse_expression(str(predicate))
    rows = [(1.0, 2.0), (None, 3.0), (-5.0, None), (0.0, 0.0)]
    table = make_table(rows)
    original = evaluate(predicate, table)
    roundtripped = evaluate(reparsed, table)
    assert original.to_list() == roundtripped.to_list()
