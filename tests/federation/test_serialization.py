"""Table wire serialization."""

import math

import pytest

from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.errors import FederationError
from repro.federation.serialization import (
    COLUMNAR_FORMAT,
    payload_elements,
    table_from_payload,
    table_to_payload,
)

MIXED_SCHEMA = Schema([
    ("i", SQLType.INT), ("r", SQLType.REAL),
    ("s", SQLType.VARCHAR), ("b", SQLType.BOOL),
])


def _mixed_table() -> Table:
    return Table.from_rows(MIXED_SCHEMA, [
        (1, 1.5, "x", True),
        (None, None, None, None),
        (-7, math.pi, "", False),
    ])


class TestRoundtrip:
    def test_all_types_with_nulls(self):
        table = _mixed_table()
        restored = table_from_payload(table_to_payload(table))
        assert restored.schema == table.schema
        assert restored.to_rows() == table.to_rows()

    def test_empty_table(self):
        schema = Schema([("v", SQLType.REAL)])
        restored = table_from_payload(table_to_payload(Table.empty(schema)))
        assert restored.num_rows == 0
        assert restored.schema == schema


class TestColumnarFormat:
    def test_payload_shape(self):
        payload = table_to_payload(_mixed_table())
        assert payload["format"] == COLUMNAR_FORMAT
        assert payload["columns"] == [
            ("i", "INT"), ("r", "REAL"), ("s", "VARCHAR"), ("b", "BOOL")
        ]
        assert set(payload["values"]) == set(payload["nulls"]) == {"i", "r", "s", "b"}
        assert payload["values"]["i"] == [1, 0, -7]  # placeholder under the mask
        assert payload["nulls"]["i"] == [False, True, False]
        # Plain JSON-able python scalars only — no numpy types on the wire.
        assert all(type(v) is int for v in payload["values"]["i"])
        assert all(type(v) is float for v in payload["values"]["r"])

    def test_null_masks_survive_round_trip(self):
        restored = table_from_payload(table_to_payload(_mixed_table()))
        assert restored.column("s").to_list() == ["x", None, ""]
        assert int(restored.column("b").nulls.sum()) == 1


class TestAdversarialEdges:
    """Payload shapes a hostile or future peer could put on the wire."""

    def test_empty_mixed_table_round_trip(self):
        restored = table_from_payload(table_to_payload(Table.empty(MIXED_SCHEMA)))
        assert restored.num_rows == 0
        assert restored.schema == MIXED_SCHEMA
        assert payload_elements(table_to_payload(restored)) == 0

    def test_all_null_columns_round_trip(self):
        table = Table.from_rows(MIXED_SCHEMA, [
            (None, None, None, None),
            (None, None, None, None),
        ])
        restored = table_from_payload(table_to_payload(table))
        for name in ("i", "r", "s", "b"):
            assert restored.column(name).to_list() == [None, None]
            assert int(restored.column(name).nulls.sum()) == 2

    def test_nan_normalizes_to_null_and_round_trips(self):
        # The engine canonicalizes NaN to NULL at ingest (complete-case
        # filtering must not see NaN); the wire must preserve that form and
        # never resurrect a NaN out of a masked slot.
        schema = Schema([("v", SQLType.REAL)])
        table = Table.from_rows(schema, [(float("nan"),), (None,), (1.0,)])
        assert int(table.column("v").nulls.sum()) == 2
        payload = table_to_payload(table)
        assert not any(math.isnan(v) for v in payload["values"]["v"])
        restored = table_from_payload(payload)
        assert restored.column("v").to_list() == [None, None, 1.0]

    def test_smuggled_nan_under_clear_mask_is_normalized(self):
        # An adversarial payload carrying raw NaN with nulls=False must not
        # leak NaN past the mask: decode folds it into NULL, same as ingest.
        schema = Schema([("v", SQLType.REAL)])
        payload = table_to_payload(Table.from_rows(schema, [(1.0,), (2.0,)]))
        payload["values"]["v"] = [float("nan"), 2.0]
        restored = table_from_payload(payload)
        assert restored.column("v").to_list() == [None, 2.0]
        assert int(restored.column("v").nulls.sum()) == 1

    def test_unknown_format_version_is_rejected(self):
        payload = table_to_payload(_mixed_table())
        payload["format"] = "columnar-v99"
        with pytest.raises(FederationError, match="columnar-v99"):
            table_from_payload(payload)

    def test_unknown_format_not_silently_decoded_as_legacy(self):
        # An untagged payload (the retired row-major layout) is rejected,
        # not guessed at.
        table = _mixed_table()
        payload = {
            "columns": [(spec.name, spec.sql_type.value) for spec in table.schema],
            "rows": table.to_rows(),
        }
        with pytest.raises(FederationError, match="unknown table payload format"):
            table_from_payload(payload)


class TestPayloadElements:
    def test_counts_columnar_cells(self):
        assert payload_elements(table_to_payload(_mixed_table())) == 12

    def test_counts_nested_and_ignores_non_tables(self):
        wrapped = {"table": table_to_payload(_mixed_table()), "job_id": "j1"}
        assert payload_elements(wrapped) == 12
        assert payload_elements({"status": "ok"}) == 0
        assert payload_elements(None) == 0
        assert payload_elements([1, 2, 3]) == 0
