"""Vectorized evaluation of expressions and SELECT plans.

Expressions evaluate column-at-a-time over numpy arrays with SQL three-valued
logic carried in explicit NULL masks.  This is the engine property MIP's
Worker nodes rely on ("vectorization, zero-cost copy"): a filter or arithmetic
expression touches whole columns, not Python-level rows.

A SELECT is a late-materialising scan: the WHERE becomes one boolean selection
(:func:`true_rows`), only the columns the rest of the statement names are
gathered through it, and the projection reads those.  Tables are immutable
by convention (``Database.register_table`` rebinds the catalog entry), so a
result may share column arrays with its base table.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.engine import expressions as ast
from repro.engine.column import Column
from repro.engine.functions import SCALAR_FUNCTIONS
from repro.engine.table import ColumnSpec, Schema, Table
from repro.engine.types import SQLType, common_type, is_numeric
from repro.errors import ExecutionError, TypeMismatchError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database


def evaluate(expression: ast.Expression, table: Table) -> Column:
    """Evaluate an expression against every row of a table, vectorized."""
    return _Evaluator(table).evaluate(expression)


def _resolve_name(schema: Schema, name: str) -> str:
    """The schema's name for a possibly qualified column reference.

    Exact names win; a qualified name (a filter may write ``t.a``) matches
    its bare column.
    """
    if name in schema:
        return name
    if "." in name:
        bare = name.split(".", 1)[1]
        if bare in schema:
            return bare
    raise ExecutionError(f"no such column: {name!r}")


class _Evaluator:
    def __init__(self, table: Table) -> None:
        self._table = table
        self._rows = table.num_rows

    def evaluate(self, expr: ast.Expression) -> Column:
        if isinstance(expr, ast.Literal):
            return self._literal(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._table.column(_resolve_name(self._table.schema, expr.name))
        if isinstance(expr, ast.UnaryOp):
            return self._unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.IsNull):
            operand = self.evaluate(expr.operand)
            mask = ~operand.nulls if expr.negated else operand.nulls.copy()
            return Column(SQLType.BOOL, mask, np.zeros(self._rows, dtype=bool))
        if isinstance(expr, ast.InList):
            return self._in_list(expr)
        if isinstance(expr, ast.Between):
            low = ast.BinaryOp(">=", expr.operand, expr.low)
            high = ast.BinaryOp("<=", expr.operand, expr.high)
            combined: ast.Expression = ast.BinaryOp("AND", low, high)
            if expr.negated:
                combined = ast.UnaryOp("NOT", combined)
            return self.evaluate(combined)
        if isinstance(expr, ast.Like):
            return self._like(expr)
        if isinstance(expr, ast.FunctionCall):
            func = SCALAR_FUNCTIONS.get(expr.name)
            if func is None:
                raise ExecutionError(f"unknown function: {expr.name}")
            args = [self.evaluate(arg) for arg in expr.args]
            return func(args)
        if isinstance(expr, ast.Cast):
            return self.evaluate(expr.operand).cast(expr.target)
        if isinstance(expr, ast.CaseWhen):
            return self._case(expr)
        raise ExecutionError(f"cannot evaluate expression node {type(expr).__name__}")

    # -------------------------------------------------------------- operators

    def _literal(self, value: Any) -> Column:
        """A literal as a column of zero-stride, read-only views: no per-row
        array exists until an operator computes one from it."""
        scalar = _Scalar(value)
        nulls = np.broadcast_to(scalar.nulls, self._rows)
        if scalar.sql_type == SQLType.VARCHAR:
            return Column.from_codes(np.broadcast_to(np.int32(0), self._rows), [value], nulls)
        return Column(scalar.sql_type, np.broadcast_to(scalar.values, self._rows), nulls)

    def _operand(self, expr: ast.Expression) -> Column | _Scalar:
        """A comparison operand: a literal stays a scalar."""
        if isinstance(expr, ast.Literal):
            return _Scalar(expr.value)
        return self.evaluate(expr)

    def _unary(self, expr: ast.UnaryOp) -> Column:
        operand = self.evaluate(expr.operand)
        if expr.op == "-":
            if not is_numeric(operand.sql_type):
                raise TypeMismatchError("unary minus requires a numeric operand")
            return Column(operand.sql_type, -operand.values, operand.nulls.copy())
        if expr.op == "NOT":
            operand = _retype_if_all_null(operand, SQLType.BOOL)
            if operand.sql_type != SQLType.BOOL:
                raise TypeMismatchError("NOT requires a boolean operand")
            return Column(SQLType.BOOL, ~operand.values, operand.nulls.copy())
        raise ExecutionError(f"unknown unary operator {expr.op}")

    def _binary(self, expr: ast.BinaryOp) -> Column:
        op = expr.op
        if op in _COMPARE:
            left, right = self._operand(expr.left), self._operand(expr.right)
            if isinstance(left, Column) and isinstance(right, _Scalar):
                return _by_label(left, lambda side: _comparison(op, side, right, len(side)))
            if isinstance(left, _Scalar) and isinstance(right, Column):
                return _by_label(right, lambda side: _comparison(op, left, side, len(side)))
            return _comparison(op, left, right, self._rows)
        left = self.evaluate(expr.left)
        right = self.evaluate(expr.right)
        if op in ("AND", "OR"):
            return _logical(op, left, right)
        if op in ("+", "-", "*", "/", "%"):
            return _arithmetic(op, left, right)
        raise ExecutionError(f"unknown binary operator {op}")

    def _like(self, expr: ast.Like) -> Column:
        import re as _re

        operand = self.evaluate(expr.operand)
        if operand.sql_type != SQLType.VARCHAR:
            raise TypeMismatchError("LIKE requires a VARCHAR operand")
        regex = _re.compile(
            "^" + _re.escape(expr.pattern).replace("%", ".*").replace("_", ".") + "$",
            _re.DOTALL,
        )
        matches = np.array([regex.match(label) is not None for label in operand.labels],
                           dtype=bool)
        if expr.negated:
            matches = ~matches
        return Column(SQLType.BOOL, _by_code(matches, operand.codes) & ~operand.nulls,
                      operand.nulls.copy())

    def _in_list(self, expr: ast.InList) -> Column:
        operand = self.evaluate(expr.operand)
        items = [self._operand(item) for item in expr.items]
        if all(isinstance(item, _Scalar) for item in items):
            return _by_label(operand, lambda side: _in(side, items, expr.negated))
        return _in(operand, items, expr.negated)

    def _case(self, expr: ast.CaseWhen) -> Column:
        branch_values = [(self.evaluate(cond), self.evaluate(val)) for cond, val in expr.branches]
        otherwise = self.evaluate(expr.otherwise) if expr.otherwise is not None else None
        out_type = branch_values[0][1].sql_type
        for _, val in branch_values[1:]:
            out_type = common_type(out_type, val.sql_type)
        if otherwise is not None:
            # An all-NULL literal ELSE adopts the branch type.
            if otherwise.nulls.all() and otherwise.sql_type != out_type:
                otherwise = Column(
                    out_type,
                    np.zeros(self._rows, dtype=out_type.numpy_dtype),
                    np.ones(self._rows, dtype=bool),
                )
            out_type = common_type(out_type, otherwise.sql_type)
        values = np.zeros(self._rows, dtype=out_type.numpy_dtype)
        nulls = np.ones(self._rows, dtype=bool)
        decided = np.zeros(self._rows, dtype=bool)
        for cond, val in branch_values:
            val = val.cast(out_type)
            fire = ~decided & cond.values & ~cond.nulls
            values[fire] = val.values[fire]
            nulls[fire] = val.nulls[fire]
            decided |= fire
        if otherwise is not None:
            otherwise = otherwise.cast(out_type)
            rest = ~decided
            values[rest] = otherwise.values[rest]
            nulls[rest] = otherwise.nulls[rest]
        return Column(out_type, values, nulls)


def _in(operand: Column, items: list[Column | _Scalar], negated: bool) -> Column:
    rows = len(operand)
    hit = np.zeros(rows, dtype=bool)
    unknown = operand.nulls
    for item in items:
        eq = _comparison("=", operand, item, rows)
        hit |= eq.values
        unknown = unknown | eq.nulls
    # SQL: x IN (...) is NULL when no match and some comparison was NULL.
    nulls = unknown & ~hit
    values = ~hit if negated else hit
    return Column(SQLType.BOOL, values & ~nulls, nulls)


def _by_label(operand: Column, evaluate: Callable[[Column], Column]) -> Column:
    """``evaluate`` (a BOOL result) over ``operand``.  A VARCHAR operand is
    evaluated once over its dictionary, one row per label, and the result
    gathered by code; its NULL rows are NULL."""
    if operand.codes is None:
        return evaluate(operand)
    labels = operand.labels
    per_label = evaluate(Column.from_codes(np.arange(len(labels)), labels))
    nulls = operand.nulls
    if per_label.nulls.any():
        nulls = nulls | _by_code(per_label.nulls, operand.codes)
    return Column(SQLType.BOOL, _by_code(per_label.values, operand.codes) & ~nulls, nulls)


def _by_code(per_label: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``per_label[codes]`` for a boolean per label: a constant when no
    label or every label holds, one int compare when a single one does."""
    hits = np.flatnonzero(per_label)
    if len(hits) == 1:
        return codes == hits[0]
    if len(hits) in (0, len(per_label)):
        return np.full(len(codes), len(hits) > 0)
    return per_label.take(codes)


def _retype_if_all_null(column: Column, target: SQLType) -> Column:
    """Adapt an all-NULL (untyped-NULL-literal) column to the needed type."""
    if column.sql_type != target and len(column) == int(column.nulls.sum()):
        return Column(
            target,
            np.zeros(len(column), dtype=target.numpy_dtype),
            np.ones(len(column), dtype=bool),
        )
    return column


def _logical(op: str, left: Column, right: Column) -> Column:
    left = _retype_if_all_null(left, SQLType.BOOL)
    right = _retype_if_all_null(right, SQLType.BOOL)
    if left.sql_type != SQLType.BOOL or right.sql_type != SQLType.BOOL:
        raise TypeMismatchError(f"{op} requires boolean operands")
    lv, ln = left.values, left.nulls
    rv, rn = right.values, right.nulls
    if op == "AND":
        # Kleene logic: FALSE AND anything = FALSE even with NULLs.
        false_side = (lv == False) & ~ln | (rv == False) & ~rn  # noqa: E712
        values = lv & rv
        nulls = (ln | rn) & ~false_side
        return Column(SQLType.BOOL, values & ~nulls, nulls)
    true_side = (lv == True) & ~ln | (rv == True) & ~rn  # noqa: E712
    values = lv | rv
    nulls = (ln | rn) & ~true_side
    return Column(SQLType.BOOL, (values | true_side) & ~nulls, nulls)


def _arithmetic(op: str, left: Column, right: Column) -> Column:
    if not (is_numeric(left.sql_type) and is_numeric(right.sql_type)):
        raise TypeMismatchError(f"operator {op} requires numeric operands")
    out_type = common_type(left.sql_type, right.sql_type)
    if op == "/":
        out_type = SQLType.REAL
    lv = left.values.astype(np.float64)
    rv = right.values.astype(np.float64)
    nulls = left.nulls | right.nulls
    with np.errstate(all="ignore"):
        if op == "+":
            values = lv + rv
        elif op == "-":
            values = lv - rv
        elif op == "*":
            values = lv * rv
        elif op == "/":
            values = np.where(rv == 0, np.nan, lv / np.where(rv == 0, 1.0, rv))
        else:  # '%'
            values = np.where(rv == 0, np.nan, np.mod(lv, np.where(rv == 0, 1.0, rv)))
    bad = ~np.isfinite(values)
    nulls = nulls | bad
    values = np.where(bad, 0.0, values)
    if out_type == SQLType.INT:
        return Column(SQLType.INT, values.astype(np.int64), nulls)
    return Column(SQLType.REAL, values, nulls)


class _Scalar:
    """A literal before it meets a row count: one value, one NULL flag.

    Carries the attributes of a :class:`Column` that :func:`_comparison`
    reads (``values`` and ``nulls`` are 0-d), so a literal operand of a
    comparison, ``IN`` list or ``BETWEEN`` is compared as a scalar.
    """

    __slots__ = ("sql_type", "values", "nulls")

    def __init__(self, value: Any) -> None:
        if value is None:
            # An untyped NULL: REAL by default, retyped by the consuming
            # operator (see _retype_if_all_null and _comparison).
            self.sql_type, value = SQLType.REAL, 0.0
            self.nulls = np.True_
        else:
            self.sql_type = SQLType.of_value(value)
            self.nulls = np.False_
        self.values = np.asarray(value, dtype=self.sql_type.numpy_dtype)


_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _comparison(op: str, left: Column | _Scalar, right: Column | _Scalar, rows: int) -> Column:
    """Three-valued comparison of two operands over ``rows`` rows."""
    nulls = left.nulls | right.nulls
    if left.sql_type == right.sql_type:
        # In the type's own dtype: INT stays exact past 2**53, where a
        # float64 cast would merge neighbours; object arrays of str compare
        # elementwise, lexicographically.
        values = _COMPARE[op](left.values, right.values)
    elif is_numeric(left.sql_type) and is_numeric(right.sql_type):
        values = _COMPARE[op](
            left.values.astype(np.float64, copy=False),
            right.values.astype(np.float64, copy=False),
        )
    elif (not is_numeric(left.sql_type) and np.all(right.nulls)) or (
        not is_numeric(right.sql_type) and np.all(left.nulls)
    ):
        # An all-NULL operand (the untyped NULL literal) adopts the other
        # side's type; every row compares to NULL.
        return Column(SQLType.BOOL, np.zeros(rows, dtype=bool), np.ones(rows, dtype=bool))
    else:
        raise TypeMismatchError(
            f"cannot compare {left.sql_type.value} with {right.sql_type.value}"
        )
    values = np.asarray(values, dtype=bool) & ~nulls
    if values.ndim == 0:  # literal against literal
        values, nulls = np.full(rows, values), np.full(rows, nulls)
    return Column(SQLType.BOOL, values, nulls)


# ------------------------------------------------------------------- SELECT


def execute_select(select: ast.Select, database: "Database") -> Table:
    """Execute a SELECT plan against a database."""
    source = database.resolve_source(select.source)
    if select.where is not None:
        source = _scan(select, source)
    return _project(select, source)


def true_rows(predicate: ast.Expression, table: Table) -> np.ndarray:
    """Boolean selection of the rows on which ``predicate`` is TRUE.

    A conjunction is TRUE exactly where every conjunct is, so the top-level
    ANDs fold into one selection with no NULL bookkeeping; three-valued logic
    applies only inside a conjunct (``OR``, ``NOT``, ``IN``, comparisons).
    """
    evaluator = _Evaluator(table)
    selection = np.ones(table.num_rows, dtype=bool)
    for conjunct in _flatten_and(predicate):
        truth = _retype_if_all_null(evaluator.evaluate(conjunct), SQLType.BOOL)
        if truth.sql_type != SQLType.BOOL:
            raise TypeMismatchError("a row predicate requires boolean operands")
        selection &= truth.values
        selection &= ~truth.nulls
    return selection


def _flatten_and(expression: ast.Expression) -> list[ast.Expression]:
    if isinstance(expression, ast.BinaryOp) and expression.op == "AND":
        return _flatten_and(expression.left) + _flatten_and(expression.right)
    return [expression]


def _scan(select: ast.Select, source: Table) -> Table:
    """The rows the WHERE keeps, of the columns the statement goes on to read.

    When every row passes, the result shares the source's column arrays.
    """
    selection = true_rows(select.where, source)
    names = _referenced_columns(select, source.schema)
    if names is not None:
        # A table's row count lives in its columns: keep one even when the
        # statement names none (SELECT 1).
        source = source.select(names or source.schema.names[:1])
    if selection.all():
        return source
    return source.take(np.flatnonzero(selection))


def _referenced_columns(select: ast.Select, schema: Schema) -> Optional[list[str]]:
    """The source columns read after the WHERE, in schema order.

    None means all of them: ``SELECT *``, an expression node the walker does
    not know, or a name that does not resolve to one source column (an error
    that evaluation will report).
    """
    if not select.items:
        return None
    pending = [item.expression for item in select.items]
    names: set[str] = set()
    while pending:
        expr = pending.pop()
        if isinstance(expr, ast.ColumnRef):
            try:
                names.add(_resolve_name(schema, expr.name))
            except ExecutionError:
                return None
            continue
        children = _children(expr)
        if children is None:
            return None
        pending.extend(children)
    return [spec.name for spec in schema if spec.name in names]


def _children(expr: ast.Expression) -> Optional[tuple[ast.Expression, ...]]:
    """Direct sub-expressions, or None for a node type this walker does not know."""
    if isinstance(expr, (ast.Literal, ast.ColumnRef)):
        return ()
    if isinstance(expr, (ast.UnaryOp, ast.IsNull, ast.Like, ast.Cast)):
        return (expr.operand,)
    if isinstance(expr, ast.BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, ast.InList):
        return (expr.operand, *expr.items)
    if isinstance(expr, ast.Between):
        return (expr.operand, expr.low, expr.high)
    if isinstance(expr, ast.FunctionCall):
        return tuple(expr.args)
    if isinstance(expr, ast.CaseWhen):
        parts = [part for branch in expr.branches for part in branch]
        if expr.otherwise is not None:
            parts.append(expr.otherwise)
        return tuple(parts)
    return None


def _project(select: ast.Select, source: Table) -> Table:
    if not select.items:  # SELECT *
        return source
    columns: list[Column] = []
    specs: list[ColumnSpec] = []
    for position, item in enumerate(select.items):
        col = evaluate(item.expression, source)
        if isinstance(item.expression, ast.Literal):
            # An output column owns its rows; the evaluator's literal is a view.
            col = col.cast(col.sql_type)
        specs.append(ColumnSpec(item.output_name(position), col.sql_type))
        columns.append(col)
    return Table(Schema(specs), columns)
