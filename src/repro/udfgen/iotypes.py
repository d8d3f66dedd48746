"""Typed input/output markers for ``@udf``-decorated functions.

MIP wraps dynamic Python with a decorator that pins each parameter and result
to one of a small set of SQL-representable kinds.  Inputs:

- ``relation``  — a table (a worker's data view), read as named columns,
- ``literal``   — a plain Python value carried in the generated SQL,
- ``transfer``  — a JSON-able dict: a global step's aggregate, or a global
  transfer broadcast to the workers.

A UDF has exactly one output:

- ``transfer``  — a JSON-able dict shipped between nodes,
- ``secure_transfer`` — a dict of ``{key: {"data": ..., "operation": op}}``
  aggregated through the SMPC cluster instead of revealed to the master.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.types import SQLType
from repro.errors import UDFError

#: SMPC aggregation operations supported by the secure transfer path.
SECURE_OPERATIONS = ("sum", "min", "max", "union")


class IOType:
    """Base class for all parameter/result kind markers."""

    __slots__ = ()

    kind: str = "abstract"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class RelationType(IOType):
    kind = "relation"


@dataclass(frozen=True, repr=False)
class LiteralType(IOType):
    kind = "literal"


@dataclass(frozen=True, repr=False)
class TransferType(IOType):
    kind = "transfer"


@dataclass(frozen=True, repr=False)
class SecureTransferType(IOType):
    """A transfer whose values are aggregated under SMPC.

    The decorated function must return a dict of ``{key: {"data":
    scalar-or-nested-list, "operation": one of SECURE_OPERATIONS}}``.
    """

    kind = "secure_transfer"


def relation() -> RelationType:
    """Declare a relational parameter."""
    return RelationType()


def literal() -> LiteralType:
    """Declare a literal (SQL-embedded) parameter."""
    return LiteralType()


def transfer() -> TransferType:
    """Declare a JSON transfer parameter or result."""
    return TransferType()


def secure_transfer() -> SecureTransferType:
    """Declare an output aggregated by the SMPC cluster."""
    return SecureTransferType()


INPUT_KINDS = (RelationType, LiteralType, TransferType)
OUTPUT_KINDS = (TransferType, SecureTransferType)


def output_schema(iotype: IOType) -> list[tuple[str, SQLType]]:
    """The physical table schema that stores a UDF's output: one blob
    column named after its kind."""
    if not isinstance(iotype, OUTPUT_KINDS):
        raise UDFError(f"{type(iotype).__name__} cannot be a UDF output")
    return [(iotype.kind, SQLType.VARCHAR)]
