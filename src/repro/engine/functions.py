"""Built-in scalar functions, all vectorized over numpy."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.column import Column, dictionary_encode
from repro.engine.types import SQLType, common_type, is_numeric
from repro.errors import ExecutionError, TypeMismatchError


def _numeric_unary(name: str, func: Callable[[np.ndarray], np.ndarray],
                   result_type: SQLType | None = None) -> Callable[[list[Column]], Column]:
    def apply(args: list[Column]) -> Column:
        (col,) = _expect_args(name, args, 1)
        if not is_numeric(col.sql_type):
            raise TypeMismatchError(f"{name} requires a numeric argument")
        out_type = result_type or SQLType.REAL
        with np.errstate(all="ignore"):
            values = func(col.values.astype(np.float64))
        nulls = col.nulls | ~np.isfinite(values)
        safe = np.where(np.isfinite(values), values, 0.0)
        if out_type == SQLType.INT:
            return Column(SQLType.INT, safe.astype(np.int64), nulls)
        return Column(SQLType.REAL, safe, nulls)

    return apply


def _expect_args(name: str, args: list[Column], count: int) -> list[Column]:
    if len(args) != count:
        raise ExecutionError(f"{name} takes {count} argument(s), got {len(args)}")
    return args


def _abs(args: list[Column]) -> Column:
    (col,) = _expect_args("ABS", args, 1)
    if not is_numeric(col.sql_type):
        raise TypeMismatchError("ABS requires a numeric argument")
    return Column(col.sql_type, np.abs(col.values), col.nulls.copy())


def _power(args: list[Column]) -> Column:
    base, exponent = _expect_args("POWER", args, 2)
    if not (is_numeric(base.sql_type) and is_numeric(exponent.sql_type)):
        raise TypeMismatchError("POWER requires numeric arguments")
    with np.errstate(all="ignore"):
        values = np.power(base.values.astype(np.float64), exponent.values.astype(np.float64))
    nulls = base.nulls | exponent.nulls | ~np.isfinite(values)
    return Column(SQLType.REAL, np.where(np.isfinite(values), values, 0.0), nulls)


def _coalesce(args: list[Column]) -> Column:
    if not args:
        raise ExecutionError("COALESCE requires at least one argument")
    out_type = args[0].sql_type
    for col in args[1:]:
        out_type = common_type(out_type, col.sql_type)
    result = args[0].cast(out_type)
    values = result.values.copy()
    nulls = result.nulls.copy()
    for col in args[1:]:
        cast = col.cast(out_type)
        fill = nulls & ~cast.nulls
        values[fill] = cast.values[fill]
        nulls = nulls & cast.nulls
    return Column(out_type, values, nulls)


def _string_unary(name: str, func: Callable[[str], str]) -> Callable[[list[Column]], Column]:
    def apply(args: list[Column]) -> Column:
        (col,) = _expect_args(name, args, 1)
        if col.sql_type != SQLType.VARCHAR:
            raise TypeMismatchError(f"{name} requires a VARCHAR argument")
        # Once per label; distinct labels may map to one result.
        codes, labels = dictionary_encode([func(label) for label in col.labels])
        return Column.from_codes(codes.take(col.codes), labels, col.nulls.copy())

    return apply


def _length(args: list[Column]) -> Column:
    (col,) = _expect_args("LENGTH", args, 1)
    if col.sql_type != SQLType.VARCHAR:
        raise TypeMismatchError("LENGTH requires a VARCHAR argument")
    lengths = np.array([len(label) for label in col.labels], dtype=np.int64)
    return Column(SQLType.INT, lengths.take(col.codes), col.nulls.copy())


SCALAR_FUNCTIONS: dict[str, Callable[[list[Column]], Column]] = {
    "ABS": _abs,
    "SQRT": _numeric_unary("SQRT", np.sqrt),
    "LN": _numeric_unary("LN", np.log),
    "LOG": _numeric_unary("LOG", np.log),
    "LOG10": _numeric_unary("LOG10", np.log10),
    "EXP": _numeric_unary("EXP", np.exp),
    "FLOOR": _numeric_unary("FLOOR", np.floor, SQLType.INT),
    "CEIL": _numeric_unary("CEIL", np.ceil, SQLType.INT),
    "CEILING": _numeric_unary("CEILING", np.ceil, SQLType.INT),
    "ROUND": _numeric_unary("ROUND", np.round),
    "SIGN": _numeric_unary("SIGN", np.sign),
    "POWER": _power,
    "POW": _power,
    "COALESCE": _coalesce,
    "LOWER": _string_unary("LOWER", str.lower),
    "UPPER": _string_unary("UPPER", str.upper),
    "TRIM": _string_unary("TRIM", str.strip),
    "LENGTH": _length,
}
