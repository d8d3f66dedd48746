"""Vectorized evaluation of expressions and SELECT plans.

Expressions evaluate column-at-a-time over numpy arrays with SQL three-valued
logic carried in explicit NULL masks.  This is the engine property MIP's
Worker nodes rely on ("vectorization, zero-cost copy"): a filter or arithmetic
expression touches whole columns, not Python-level rows.

A SELECT is a late-materialising scan: the WHERE becomes one boolean selection
(:func:`true_rows`), only the columns the rest of the statement names are
gathered through it, and projection or aggregation reads those.  Tables are
immutable by convention (INSERT and DELETE rebind the catalog entry), so a
result may share column arrays with its base table.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.engine import expressions as ast
from repro.engine.column import Column
from repro.engine.functions import SCALAR_FUNCTIONS, aggregate, aggregate_result_type
from repro.engine.table import ColumnSpec, Schema, Table
from repro.engine.types import SQLType, common_type, is_numeric
from repro.errors import ExecutionError, TypeMismatchError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database


def evaluate(expression: ast.Expression, table: Table) -> Column:
    """Evaluate an expression against every row of a table, vectorized."""
    return _Evaluator(table).evaluate(expression)


def resolve_column(table: Table, name: str) -> Column:
    """Resolve a possibly qualified column reference against a table."""
    return table.column(_resolve_name(table.schema, name))


def _resolve_name(schema: Schema, name: str) -> str:
    """The schema's name for a possibly qualified column reference.

    Exact names win; a bare name also matches a unique ``alias.name`` column
    (the layout join outputs use), and a qualified name matches its bare
    column when the source carried no alias.
    """
    if name in schema:
        return name
    if "." not in name:
        suffix = "." + name
        matches = [s.name for s in schema if s.name.endswith(suffix)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise ExecutionError(f"ambiguous column reference {name!r}: {matches}")
    else:
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
            return resolve_column(self._table, expr.name)
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
        if isinstance(expr, ast.Aggregate):
            raise ExecutionError("aggregate used outside of an aggregating SELECT")
        raise ExecutionError(f"cannot evaluate expression node {type(expr).__name__}")

    # -------------------------------------------------------------- operators

    def _literal(self, value: Any) -> Column:
        """A literal as a column of zero-stride, read-only views: no per-row
        array exists until an operator computes one from it."""
        scalar = _Scalar(value)
        return Column(
            scalar.sql_type,
            np.broadcast_to(scalar.values, self._rows),
            np.broadcast_to(scalar.nulls, self._rows),
        )

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
            return _comparison(
                op, self._operand(expr.left), self._operand(expr.right), self._rows
            )
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
        matches = np.array(
            [bool(regex.match(v)) if not null else False
             for v, null in zip(operand.values, operand.nulls)],
            dtype=bool,
        )
        if expr.negated:
            matches = ~matches & ~operand.nulls
        return Column(SQLType.BOOL, matches, operand.nulls.copy())

    def _in_list(self, expr: ast.InList) -> Column:
        operand = self.evaluate(expr.operand)
        hit = np.zeros(self._rows, dtype=bool)
        unknown = operand.nulls
        for item in expr.items:
            eq = _comparison("=", operand, self._operand(item), self._rows)
            hit |= eq.values
            unknown = unknown | eq.nulls
        # SQL: x IN (...) is NULL when no match and some comparison was NULL.
        nulls = unknown & ~hit
        values = ~hit if expr.negated else hit
        return Column(SQLType.BOOL, values & ~nulls, nulls)

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
    if is_numeric(left.sql_type) and is_numeric(right.sql_type):
        values = _COMPARE[op](
            left.values.astype(np.float64, copy=False),
            right.values.astype(np.float64, copy=False),
        )
    elif left.sql_type == right.sql_type:
        # Object arrays of str compare elementwise, lexicographically.
        values = _COMPARE[op](left.values, right.values)
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
    if select.source is None:
        one_row = Table.from_rows(Schema([("dummy", SQLType.INT)]), [(0,)])
        return _project_scalar(select, one_row)
    source = database.resolve_source(select.source)
    if select.where is not None:
        source = _scan(select, source)
    if select.group_by or _has_aggregates(select):
        result = _execute_aggregation(select, source)
    else:
        result = _project(select, source)
    if select.distinct:
        result = _distinct(result)
    if select.order_by:
        aligned = not select.group_by and not _has_aggregates(select) and not select.distinct
        result = _order(result, select, source if aligned else None)
    if select.limit is not None:
        result = result.slice(0, select.limit)
    return result


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


def _scan(select: ast.Select, source: Table) -> Table:
    """The rows the WHERE keeps, of the columns the statement goes on to read.

    When every row passes, the result shares the source's column arrays.
    """
    selection = true_rows(select.where, source)
    names = _referenced_columns(select, source.schema)
    if names is not None:
        # A table's row count lives in its columns: keep one even when the
        # statement names none (SELECT COUNT(*), SELECT 1).
        source = source.select(names or source.schema.names[:1])
    if selection.all():
        return source
    return source.take(np.flatnonzero(selection))


def _referenced_columns(select: ast.Select, schema: Schema) -> Optional[list[str]]:
    """The source columns read after the WHERE, in schema order.

    None means all of them: ``SELECT *``, an expression node the walker does
    not know, or a name that does not resolve to one source column (an output
    alias in ORDER BY, or an error that evaluation will report).
    """
    if not select.items:
        return None
    pending = [item.expression for item in select.items]
    pending.extend(select.group_by)
    if select.having is not None:
        pending.append(select.having)
    pending.extend(key.expression for key in select.order_by)
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


def _distinct(result: Table) -> Table:
    """Keep the first occurrence of each row tuple (SELECT DISTINCT).

    Vectorized: rows are factorized into an integer code matrix and
    deduplicated with one ``np.unique(axis=0)`` pass instead of hashing a
    Python tuple per row.  First-occurrence order is preserved (the unique
    indices are re-sorted into row order).
    """
    if result.num_rows <= 1:
        return result
    codes = np.column_stack([_column_codes(column) for column in result.columns])
    _, first = np.unique(codes, axis=0, return_index=True)
    first.sort()
    return result.take(first.astype(np.int64))


def _column_codes(column: Column) -> np.ndarray:
    """Row-equality codes for one column: equal row values (by the Python
    tuple semantics ``_distinct`` historically used) get equal codes.

    NULLs all share code 0 (``None == None`` dedupes).  REAL NaNs each get a
    fresh code because ``float("nan") != float("nan")`` kept every NaN row
    distinct in the row-tuple reference.
    """
    values = column.values
    if column.sql_type == SQLType.VARCHAR:
        _, inverse = np.unique(values.astype(str), return_inverse=True)
        codes = inverse.astype(np.int64) + 1
    elif column.sql_type == SQLType.REAL:
        uniques, inverse = np.unique(values, return_inverse=True)
        codes = inverse.astype(np.int64) + 1
        nan_mask = np.isnan(values)
        if nan_mask.any():
            codes[nan_mask] = len(uniques) + 1 + np.arange(int(nan_mask.sum()))
    else:  # INT / BOOL
        _, inverse = np.unique(values, return_inverse=True)
        codes = inverse.astype(np.int64) + 1
    codes[column.nulls] = 0
    return codes


def _has_aggregates(select: ast.Select) -> bool:
    return any(_contains_aggregate(item.expression) for item in select.items) or (
        select.having is not None and _contains_aggregate(select.having)
    )


def _contains_aggregate(expr: ast.Expression) -> bool:
    if isinstance(expr, ast.Aggregate):
        return True
    return any(_contains_aggregate(child) for child in _children(expr) or ())


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
    if isinstance(expr, ast.Aggregate):
        return () if expr.argument is None else (expr.argument,)
    if isinstance(expr, ast.CaseWhen):
        parts = [part for branch in expr.branches for part in branch]
        if expr.otherwise is not None:
            parts.append(expr.otherwise)
        return tuple(parts)
    return None


def _project(select: ast.Select, source: Table) -> Table:
    if not select.items:  # SELECT *
        return source
    return _project_scalar(select, source)


def _project_scalar(select: ast.Select, source: Table) -> Table:
    columns: list[Column] = []
    specs: list[ColumnSpec] = []
    for position, item in enumerate(select.items):
        col = evaluate(item.expression, source)
        if isinstance(item.expression, ast.Literal):
            # An output column owns its rows; the evaluator's literal is a view.
            col = Column(col.sql_type, col.values.copy(), col.nulls.copy())
        specs.append(ColumnSpec(item.output_name(position), col.sql_type))
        columns.append(col)
    return Table(Schema(specs), columns)


def _execute_aggregation(select: ast.Select, source: Table) -> Table:
    if select.group_by:
        key_columns = [evaluate(key, source) for key in select.group_by]
        groups = (source.take(indices) for indices in _group_indices(key_columns, source.num_rows))
    else:
        # One group, even over zero rows: the scanned columns, read in place.
        groups = [source]
    rows: list[list[Any]] = []
    for subset in groups:
        if select.having is not None:
            keep = _evaluate_with_aggregates(select.having, subset)
            if keep is None or keep is False:
                continue
        rows.append(
            [_evaluate_with_aggregates(item.expression, subset) for item in select.items]
        )
    schema = Schema([
        ColumnSpec(item.output_name(position), _aggregate_expr_type(item.expression, source.schema))
        for position, item in enumerate(select.items)
    ])
    return Table.from_rows(schema, rows)


def _group_indices(key_columns: list[Column], row_count: int) -> list[np.ndarray]:
    keys: dict[tuple, list[int]] = {}
    for i in range(row_count):
        key = tuple(col[i] for col in key_columns)
        keys.setdefault(key, []).append(i)
    return [np.array(indices, dtype=np.int64) for indices in keys.values()]


def _evaluate_with_aggregates(expr: ast.Expression, subset: Table) -> Any:
    """Evaluate an expression that may mix aggregates and group-key columns."""
    if isinstance(expr, ast.Aggregate):
        argument = evaluate(expr.argument, subset) if expr.argument is not None else None
        return aggregate(expr.name, argument, subset.num_rows, expr.distinct)
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        col = resolve_column(subset, expr.name)
        if len(col) == 0:
            return None
        return col[0]
    if isinstance(expr, ast.UnaryOp):
        value = _evaluate_with_aggregates(expr.operand, subset)
        if value is None:
            return None
        return (not value) if expr.op == "NOT" else -value
    if isinstance(expr, ast.BinaryOp):
        left = _evaluate_with_aggregates(expr.left, subset)
        right = _evaluate_with_aggregates(expr.right, subset)
        return _scalar_binary(expr.op, left, right)
    if isinstance(expr, ast.Cast):
        inner = _evaluate_with_aggregates(expr.operand, subset)
        if inner is None:
            return None
        single = Column.from_values(SQLType.of_value(inner), [inner]).cast(expr.target)
        return single[0]
    if isinstance(expr, ast.FunctionCall):
        args = [_evaluate_with_aggregates(a, subset) for a in expr.args]
        from repro.engine.functions import SCALAR_FUNCTIONS as fns
        func = fns.get(expr.name)
        if func is None:
            raise ExecutionError(f"unknown function: {expr.name}")
        arg_cols = []
        for value in args:
            if value is None:
                arg_cols.append(Column.from_values(SQLType.REAL, [None]))
            else:
                arg_cols.append(Column.from_values(SQLType.of_value(value), [value]))
        return func(arg_cols)[0]
    if isinstance(expr, ast.CaseWhen):
        for cond, value in expr.branches:
            test = _evaluate_with_aggregates(cond, subset)
            if test:
                return _evaluate_with_aggregates(value, subset)
        if expr.otherwise is not None:
            return _evaluate_with_aggregates(expr.otherwise, subset)
        return None
    if isinstance(expr, ast.IsNull):
        inner = _evaluate_with_aggregates(expr.operand, subset)
        return (inner is not None) if expr.negated else (inner is None)
    raise ExecutionError(f"unsupported expression in aggregation: {type(expr).__name__}")


def _scalar_binary(op: str, left: Any, right: Any) -> Any:
    if op == "AND":
        if left is False or right is False:
            return False
        if left is None or right is None:
            return None
        return bool(left and right)
    if op == "OR":
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return bool(left or right)
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        return left / right
    if op == "%":
        if right == 0:
            return None
        return left % right
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
    raise ExecutionError(f"unknown operator {op}")


def _aggregate_expr_type(expr: ast.Expression, schema: Schema) -> SQLType:
    if isinstance(expr, ast.Aggregate):
        argument_type = None
        if expr.argument is not None:
            argument_type = _aggregate_expr_type(expr.argument, schema)
        return aggregate_result_type(expr.name, argument_type)
    if isinstance(expr, ast.ColumnRef):
        return schema.type_of(_resolve_name(schema, expr.name))
    if isinstance(expr, ast.Literal):
        if expr.value is None:
            return SQLType.REAL
        return SQLType.of_value(expr.value)
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return SQLType.BOOL
        return _aggregate_expr_type(expr.operand, schema)
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR", "=", "<>", "<", "<=", ">", ">="):
            return SQLType.BOOL
        if expr.op == "/":
            return SQLType.REAL
        left = _aggregate_expr_type(expr.left, schema)
        right = _aggregate_expr_type(expr.right, schema)
        return common_type(left, right)
    if isinstance(expr, ast.Cast):
        return expr.target
    if isinstance(expr, ast.FunctionCall):
        if expr.name in ("LOWER", "UPPER", "TRIM"):
            return SQLType.VARCHAR
        if expr.name in ("FLOOR", "CEIL", "CEILING", "LENGTH"):
            return SQLType.INT
        if expr.name == "COALESCE" and expr.args:
            return _aggregate_expr_type(expr.args[0], schema)
        if expr.name == "ABS" and expr.args:
            return _aggregate_expr_type(expr.args[0], schema)
        return SQLType.REAL
    if isinstance(expr, (ast.IsNull, ast.InList, ast.Between, ast.Like)):
        return SQLType.BOOL
    if isinstance(expr, ast.CaseWhen):
        return _aggregate_expr_type(expr.branches[0][1], schema)
    raise ExecutionError(f"cannot type expression {type(expr).__name__}")


# --------------------------------------------------------------------- joins


def execute_join(
    left: Table, right: Table, condition: ast.Expression, kind: str
) -> Table:
    """INNER or LEFT join, hash-based for equi-conditions.

    The inputs' schemas are expected to already carry qualified (or at least
    distinct) column names; duplicated names are a catalog error.
    """
    specs = list(left.schema.columns) + list(right.schema.columns)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        duplicated = sorted({n for n in names if names.count(n) > 1})
        raise ExecutionError(
            f"join would produce duplicate columns {duplicated}; alias the sources"
        )
    combined_schema = Schema(specs)
    equi_keys, residual = _split_join_condition(condition, left, right)
    if equi_keys:
        left_idx, right_idx = _hash_join_indices(left, right, equi_keys)
    else:
        if left.num_rows * right.num_rows > 1_000_000:
            raise ExecutionError(
                "non-equi join too large "
                f"({left.num_rows} x {right.num_rows} rows); add an equality condition"
            )
        left_idx = np.repeat(np.arange(left.num_rows), right.num_rows)
        right_idx = np.tile(np.arange(right.num_rows), left.num_rows)
    joined = Table(
        combined_schema,
        [c.take(left_idx) for c in left.columns] + [c.take(right_idx) for c in right.columns],
    )
    predicate = residual if equi_keys else condition
    if predicate is not None:
        mask = true_rows(predicate, joined)
        joined = joined.filter(mask)
        left_idx = left_idx[mask]
    if kind == "LEFT":
        matched = np.zeros(left.num_rows, dtype=bool)
        matched[left_idx] = True
        missing = np.flatnonzero(~matched)
        if len(missing):
            null_right = [
                Column.from_values(s.sql_type, [None] * len(missing))
                for s in right.schema
            ]
            padding = Table(
                combined_schema,
                [c.take(missing) for c in left.columns] + null_right,
            )
            joined = joined.concat(padding)
    return joined


def _split_join_condition(
    condition: ast.Expression, left: Table, right: Table
) -> tuple[list[tuple[str, str]], Optional[ast.Expression]]:
    """Extract (left_col, right_col) equality keys from an AND-conjunction."""
    conjuncts = _flatten_and(condition)
    keys: list[tuple[str, str]] = []
    residual: list[ast.Expression] = []
    for conjunct in conjuncts:
        pair = _equi_pair(conjunct, left, right)
        if pair is not None:
            keys.append(pair)
        else:
            residual.append(conjunct)
    residual_expr: Optional[ast.Expression] = None
    for item in residual:
        residual_expr = item if residual_expr is None else ast.BinaryOp("AND", residual_expr, item)
    return keys, residual_expr


def _flatten_and(expression: ast.Expression) -> list[ast.Expression]:
    if isinstance(expression, ast.BinaryOp) and expression.op == "AND":
        return _flatten_and(expression.left) + _flatten_and(expression.right)
    return [expression]


def _equi_pair(expression: ast.Expression, left: Table, right: Table):
    if not (isinstance(expression, ast.BinaryOp) and expression.op == "="):
        return None
    if not (isinstance(expression.left, ast.ColumnRef)
            and isinstance(expression.right, ast.ColumnRef)):
        return None

    def side_of(name: str) -> Optional[str]:
        try:
            resolve_column(left, name)
            return "left"
        except ExecutionError:
            pass
        try:
            resolve_column(right, name)
            return "right"
        except ExecutionError:
            return None

    first = side_of(expression.left.name)
    second = side_of(expression.right.name)
    if first == "left" and second == "right":
        return (expression.left.name, expression.right.name)
    if first == "right" and second == "left":
        return (expression.right.name, expression.left.name)
    return None


#: Above this magnitude an int64 does not round-trip through float64, so the
#: joint int/real key factorization could conflate distinct keys.
_EXACT_FLOAT_INT = 1 << 53

_EMPTY_INDICES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _hash_join_indices(left: Table, right: Table, keys: list[tuple[str, str]]):
    """Matching (left_idx, right_idx) pairs for an equi-join.

    Vectorized: both sides' key rows are factorized into one shared integer
    code space, the right side is stably sorted by code, and each left row
    gathers its match range with two ``searchsorted`` calls.  Output order
    matches the historical nested-loop build: left row-major, right rows
    ascending within each left row.  NULL (and NaN) keys never match.
    """
    left_columns = [resolve_column(left, l) for l, _ in keys]
    right_columns = [resolve_column(right, r) for _, r in keys]
    left_valid = np.ones(left.num_rows, dtype=bool)
    right_valid = np.ones(right.num_rows, dtype=bool)
    merged_codes = []
    for lcol, rcol in zip(left_columns, right_columns):
        merged = _merged_key_values(lcol, rcol)
        if merged is None:  # incomparable types: no key can ever match
            return _EMPTY_INDICES
        if merged is _PYTHON_FALLBACK:
            return _hash_join_indices_python(left, right, left_columns, right_columns)
        left_valid &= ~lcol.nulls
        right_valid &= ~rcol.nulls
        if merged.dtype == np.float64:
            nan_mask = np.isnan(merged)
            left_valid &= ~nan_mask[: left.num_rows]
            right_valid &= ~nan_mask[left.num_rows :]
        _, inverse = np.unique(merged, return_inverse=True)
        merged_codes.append(inverse.astype(np.int64))
    if not np.any(left_valid) or not np.any(right_valid):
        return _EMPTY_INDICES
    _, row_codes = np.unique(
        np.column_stack(merged_codes), axis=0, return_inverse=True
    )
    row_codes = row_codes.astype(np.int64)
    left_rows = np.flatnonzero(left_valid)
    right_rows = np.flatnonzero(right_valid)
    left_codes = row_codes[: left.num_rows][left_rows]
    right_codes = row_codes[left.num_rows :][right_rows]
    # Stable sort groups equal right keys while keeping row order within a
    # group — the bucket-append order the nested-loop build produced.
    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    starts = np.searchsorted(sorted_codes, left_codes, side="left")
    ends = np.searchsorted(sorted_codes, left_codes, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_INDICES
    left_idx = np.repeat(left_rows, counts)
    # Positions within sorted_codes: each left row's [start, end) range,
    # laid out contiguously.
    span_offsets = np.cumsum(counts) - counts
    positions = np.arange(total) - np.repeat(span_offsets, counts) + np.repeat(starts, counts)
    right_idx = right_rows[order][positions]
    return left_idx, right_idx


class _PythonFallback:
    pass


_PYTHON_FALLBACK = _PythonFallback()


def _merged_key_values(lcol: Column, rcol: Column):
    """Concatenated (left then right) key values in one comparable dtype.

    Returns ``None`` when the types can never compare equal (string vs
    numeric), and ``_PYTHON_FALLBACK`` when exactness would be lost (int/real
    keys with values past 2**53, where Python's exact ``int == float`` and a
    float64 cast disagree).
    """
    l_str = lcol.sql_type == SQLType.VARCHAR
    r_str = rcol.sql_type == SQLType.VARCHAR
    if l_str != r_str:
        return None
    if l_str:
        return np.concatenate([lcol.values.astype(str), rcol.values.astype(str)])
    if lcol.sql_type == rcol.sql_type or SQLType.REAL not in (
        lcol.sql_type,
        rcol.sql_type,
    ):
        # Same type, or int/bool mix: concatenation promotes exactly.
        return np.concatenate([lcol.values, rcol.values])
    for col in (lcol, rcol):
        if col.sql_type == SQLType.INT and np.any(
            np.abs(col.values[~col.nulls]) > _EXACT_FLOAT_INT
        ):
            return _PYTHON_FALLBACK
    return np.concatenate(
        [lcol.values.astype(np.float64), rcol.values.astype(np.float64)]
    )


def _hash_join_indices_python(
    left: Table,
    right: Table,
    left_columns: list[Column],
    right_columns: list[Column],
):
    """Row-at-a-time reference build (exact mixed int/real key equality)."""
    buckets: dict[tuple, list[int]] = {}
    for row in range(right.num_rows):
        key = tuple(col[row] for col in right_columns)
        if any(part is None for part in key):  # SQL: NULL keys never match
            continue
        buckets.setdefault(key, []).append(row)
    left_idx: list[int] = []
    right_idx: list[int] = []
    for row in range(left.num_rows):
        key = tuple(col[row] for col in left_columns)
        if any(part is None for part in key):
            continue
        for match in buckets.get(key, ()):
            left_idx.append(row)
            right_idx.append(match)
    return np.array(left_idx, dtype=np.int64), np.array(right_idx, dtype=np.int64)


def _order(result: Table, select: ast.Select, row_source: Optional[Table]) -> Table:
    # Order keys resolve against the result schema, or — when the result rows
    # still align 1:1 with the filtered source — against the source (SQL
    # allows ordering by columns that were not projected).
    keys = []
    for key in select.order_by:
        try:
            col = evaluate(key.expression, result)
        except ExecutionError:
            if row_source is None or row_source.num_rows != result.num_rows:
                raise
            col = evaluate(key.expression, row_source)
        keys.append((col, key.ascending))
    order = np.arange(result.num_rows)
    # Stable sort from the last key to the first.
    for col, ascending in reversed(keys):
        sortable = col.to_numpy()
        if col.sql_type == SQLType.VARCHAR:
            sortable = np.array([v if v is not None else "" for v in sortable], dtype=object)
            ranks = np.argsort(sortable[order], kind="stable")
        else:
            arr = np.asarray(sortable, dtype=np.float64)[order]
            arr = np.where(np.isnan(arr), np.inf, arr)  # NULLs last
            ranks = np.argsort(arr, kind="stable")
        if not ascending:
            ranks = ranks[::-1]
        order = order[ranks]
    return result.take(order)
