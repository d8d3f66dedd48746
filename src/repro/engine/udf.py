"""Python table UDFs executed inside the engine.

MonetDB embeds Python UDFs that receive columns as numpy arrays and return
columns; it also offers *loopback queries* so a UDF body can issue SQL against
the hosting session.  Both capabilities are reproduced here because the
UDFGenerator (``repro.udfgen``) relies on them: a generated UDF reads its
relational inputs through loopback queries and emits its outputs as columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.engine.column import Column
from repro.engine.table import ColumnSpec, Schema, Table
from repro.engine.types import SQLType
from repro.errors import UDFError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database


@dataclass(frozen=True)
class UDFDefinition:
    """A compiled Python table UDF stored in the catalog."""

    name: str
    parameters: tuple[tuple[str, SQLType], ...]
    returns: tuple[tuple[str, SQLType], ...]
    body: str

    @property
    def return_schema(self) -> Schema:
        return Schema([ColumnSpec(n, t) for n, t in self.returns])


class LoopbackConnection:
    """The ``_conn`` object visible inside a UDF body.

    Mirrors MonetDB's embedded-Python loopback API: ``execute`` returns a dict
    of numpy arrays for a SELECT and None for a CREATE FUNCTION.
    """

    def __init__(self, database: "Database") -> None:
        self._database = database

    def execute(self, sql: str) -> dict[str, np.ndarray] | None:
        result = self._database.execute(sql)
        if result is None:
            return None
        return {spec.name: result.column(spec.name).to_numpy() for spec in result.schema}

    def execute_table(self, sql: str) -> Table | None:
        """Extension over MonetDB: fetch the full Table (keeps NULL masks)."""
        return self._database.execute(sql)


def run_udf(
    definition: UDFDefinition,
    database: "Database",
    literal_args: Sequence[Any],
) -> Table:
    """Execute a UDF body and validate its declared output schema.

    Parameters bind in declaration order to ``literal_args``; relational
    inputs arrive through loopback queries on ``_conn``.
    """
    if len(literal_args) > len(definition.parameters):
        raise UDFError(
            f"UDF {definition.name}: {len(literal_args)} literal arguments for "
            f"{len(definition.parameters)} parameters"
        )
    namespace: dict[str, Any] = {
        "np": np,
        "numpy": np,
        "_conn": LoopbackConnection(database),
        "__udf_result": None,
    }
    for (pname, _), value in zip(definition.parameters, literal_args):
        namespace[pname] = value

    code = _compiled_body(definition.name, definition.body)
    try:
        exec(code, namespace)
        raw = namespace["__udf"]()
    except UDFError:
        raise
    except Exception as exc:  # noqa: BLE001 - UDF bodies are user code
        raise UDFError(f"UDF {definition.name} raised {type(exc).__name__}: {exc}") from exc
    return _coerce_result(definition, raw)


@lru_cache(maxsize=512)
def _compiled_body(name: str, body: str):
    """Compile a UDF body once per (name, body); iterative flows re-run the
    same definition hundreds of times and the parse/compile cost dominates."""
    return compile(_wrap_body(body), f"<udf:{name}>", "exec")


def _wrap_body(body: str) -> str:
    """Wrap the raw body in a function so ``return`` works, preserving indent."""
    lines = body.splitlines()
    # Normalize leading blank lines away.
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise UDFError("empty UDF body")
    indent = len(lines[0]) - len(lines[0].lstrip())
    normalized = []
    for line in lines:
        if line.strip():
            normalized.append("    " + line[indent:] if len(line) >= indent else "    " + line.lstrip())
        else:
            normalized.append("")
    return "def __udf():\n" + "\n".join(normalized) + "\n"


def _coerce_result(definition: UDFDefinition, raw: Any) -> Table:
    """Coerce a UDF return value (mapping / array / scalar / Table) to a Table."""
    schema = definition.return_schema
    if isinstance(raw, Table):
        if len(raw.schema) != len(schema):
            raise UDFError(
                f"UDF {definition.name} returned {len(raw.schema)} columns, "
                f"declared {len(schema)}"
            )
        return raw.rename(schema.names)
    if isinstance(raw, Mapping):
        columns = []
        length = None
        for spec in schema:
            if spec.name not in raw:
                raise UDFError(f"UDF {definition.name} result missing column {spec.name!r}")
            col = _to_column(raw[spec.name], spec.sql_type)
            if length is None:
                length = len(col)
            elif len(col) != length:
                raise UDFError(f"UDF {definition.name} returned ragged columns")
            columns.append(col)
        return Table(schema, columns)
    if len(schema) == 1:
        return Table(schema, [_to_column(raw, schema.columns[0].sql_type)])
    raise UDFError(
        f"UDF {definition.name} must return a mapping of columns "
        f"(declared {len(schema)} output columns)"
    )


def _to_column(value: Any, sql_type: SQLType) -> Column:
    if isinstance(value, Column):
        if value.sql_type != sql_type:
            return value.cast(sql_type)
        return value
    if isinstance(value, np.ndarray):
        return Column.from_numpy(sql_type, np.atleast_1d(value))
    if isinstance(value, (list, tuple)):
        return Column.from_values(sql_type, value)
    # scalar
    return Column.from_values(sql_type, [value])
