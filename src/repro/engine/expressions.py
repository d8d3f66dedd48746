"""Expression and statement AST for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.engine.types import SQLType


class Expression:
    """Base class for expression AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expression):
    value: Any  # None means SQL NULL

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # '-' or 'NOT'
    operand: Expression

    def __str__(self) -> str:
        return f"{self.op} ({self.operand})"


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # arithmetic, comparison, AND/OR
    left: Expression
    right: Expression

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {suffix})"


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def __str__(self) -> str:
        inner = ", ".join(str(item) for item in self.items)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {keyword} ({inner}))"


@dataclass(frozen=True)
class Like(Expression):
    """SQL LIKE pattern match (% = any run, _ = any one character)."""

    operand: Expression
    pattern: str
    negated: bool = False

    def __str__(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"({self.operand} {keyword} '{escaped}')"


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def __str__(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand} {keyword} {self.low} AND {self.high})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar function call (ABS, SQRT, COALESCE, ...)."""

    name: str
    args: tuple[Expression, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class Cast(Expression):
    operand: Expression
    target: SQLType

    def __str__(self) -> str:
        return f"CAST({self.operand} AS {self.target.value})"


@dataclass(frozen=True)
class CaseWhen(Expression):
    """CASE WHEN cond THEN value [WHEN ...] [ELSE value] END."""

    branches: tuple[tuple[Expression, Expression], ...]
    otherwise: Optional[Expression]

    def __str__(self) -> str:
        parts = ["CASE"]
        for cond, value in self.branches:
            parts.append(f"WHEN {cond} THEN {value}")
        if self.otherwise is not None:
            parts.append(f"ELSE {self.otherwise}")
        parts.append("END")
        return " ".join(parts)


# --------------------------------------------------------------------- plans


@dataclass(frozen=True)
class SelectItem:
    expression: Expression
    alias: Optional[str] = None

    def output_name(self, position: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expression, ColumnRef):
            return self.expression.name
        return f"col_{position}"


class TableSource:
    """Base class for the FROM clause of a SELECT."""

    __slots__ = ()


@dataclass(frozen=True)
class NamedTable(TableSource):
    name: str


@dataclass(frozen=True)
class Parameter:
    """A ``?`` table-function argument, bound when the statement executes."""


@dataclass(frozen=True)
class UDFCall(TableSource):
    """A table-function call, MonetDB style: ``f(?, ...)``.  As parsed every
    argument is a :class:`Parameter`; a bound statement holds the values."""

    name: str
    literal_args: tuple[Any, ...] = ()


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]  # empty tuple means SELECT *
    source: TableSource
    where: Optional[Expression] = None


# ----------------------------------------------------------------------- DDL


@dataclass(frozen=True)
class CreateFunction:
    """CREATE [OR REPLACE] FUNCTION f(args) RETURNS TABLE(cols) LANGUAGE PYTHON {body}."""

    name: str
    parameters: tuple[tuple[str, SQLType], ...]
    returns: tuple[tuple[str, SQLType], ...]
    body: str
    or_replace: bool = False


Statement = Select | CreateFunction
