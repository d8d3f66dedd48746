"""UDF I/O type markers."""

import pytest

from repro.engine.types import SQLType
from repro.errors import UDFError
from repro.udfgen.iotypes import (
    literal,
    output_schema,
    relation,
    secure_transfer,
    transfer,
)


class TestConstructors:
    def test_kinds(self):
        assert relation().kind == "relation"
        assert literal().kind == "literal"
        assert transfer().kind == "transfer"
        assert secure_transfer().kind == "secure_transfer"


class TestOutputSchema:
    def test_transfer_blob_schema(self):
        assert output_schema(transfer()) == [("transfer", SQLType.VARCHAR)]

    def test_secure_transfer_blob_schema(self):
        assert output_schema(secure_transfer()) == [("secure_transfer", SQLType.VARCHAR)]

    def test_literal_cannot_be_output(self):
        with pytest.raises(UDFError):
            output_schema(literal())

    def test_relation_cannot_be_output(self):
        with pytest.raises(UDFError):
            output_schema(relation())
