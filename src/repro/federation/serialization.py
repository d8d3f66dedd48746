"""Table <-> payload serialization for transport messages.

Wire format v2 (``columnar-v1`` tag) ships each table as a dict of typed
value lists plus per-column null masks — one ``.tolist()`` per column
instead of a Python tuple per row, so encode/decode cost scales with the
number of columns, not the number of cells.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.engine.table import ColumnSpec, Schema, Table
from repro.engine.types import SQLType
from repro.errors import FederationError

#: Version tag carried in every table payload.
COLUMNAR_FORMAT = "columnar-v1"


def table_to_payload(table: Table) -> dict[str, Any]:
    """Serialize a table into the columnar wire format."""
    values: dict[str, list[Any]] = {}
    nulls: dict[str, list[bool]] = {}
    for spec, column in zip(table.schema, table.columns):
        values[spec.name] = column.values.tolist()
        nulls[spec.name] = column.nulls.tolist()
    return {
        "format": COLUMNAR_FORMAT,
        "columns": [(spec.name, spec.sql_type.value) for spec in table.schema],
        "values": values,
        "nulls": nulls,
    }


def table_from_payload(payload: dict[str, Any]) -> Table:
    """Rebuild a table from the columnar wire format.

    A payload with no ``format`` tag, or an unknown one, is rejected loudly:
    guessing at the layout of another format would corrupt data mid-study.
    """
    declared = payload.get("format")
    if declared != COLUMNAR_FORMAT:
        raise FederationError(
            f"unknown table payload format {declared!r} "
            f"(this node understands {COLUMNAR_FORMAT!r})"
        )
    from repro.engine.column import Column

    specs = [
        ColumnSpec(name, SQLType.from_name(type_name))
        for name, type_name in payload["columns"]
    ]
    columns = []
    for spec in specs:
        array = np.asarray(
            payload["values"][spec.name], dtype=spec.sql_type.numpy_dtype
        )
        mask = np.asarray(payload["nulls"][spec.name], dtype=bool)
        columns.append(Column.from_numpy(spec.sql_type, array, mask))
    return Table(Schema(specs), columns)


def transfer_table(blob: str) -> Table:
    """A stored transfer: one VARCHAR cell, ``transfer``, holding its JSON."""
    return Table.from_rows(Schema([ColumnSpec("transfer", SQLType.VARCHAR)]), [(blob,)])


def payload_elements(payload: Any) -> int:
    """Count the table cells a message payload carries (0 for non-tables).

    Recognizes a table payload at any nesting depth, so the transport can
    meter element counts without knowing which message kinds ship tables.
    """
    if not isinstance(payload, dict):
        return 0
    if "columns" in payload and payload.get("format") == COLUMNAR_FORMAT:
        return sum(len(column) for column in payload["values"].values())
    return sum(payload_elements(value) for value in payload.values())
