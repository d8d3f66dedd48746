"""Nominal columns reach UDF bodies as codes: no body gathers labels.

``Column.values`` renders a VARCHAR column's labels, one Python string per
row.  With it refused for VARCHAR columns while a UDF body runs, the
algorithms whose bodies read nominal columns must still run end to end:
they read ``relation.codes`` and ``relation.levels`` instead.  (Outside the
bodies the engine may still evaluate a WHERE once per distinct label.)
"""

from __future__ import annotations

import threading

import pytest

from repro.core.experiment import ExperimentEngine, ExperimentRequest
from repro.engine import database
from repro.engine.column import Column
from repro.engine.types import SQLType

REQUESTS = {
    "id3": dict(y=("alzheimerbroadcategory",), x=("gender", "va_etiology"),
                parameters={"max_depth": 2}),
    "cart": dict(y=("alzheimerbroadcategory",), x=("lefthippocampus", "gender"),
                 parameters={"max_depth": 2}),
    "naive_bayes": dict(y=("alzheimerbroadcategory",), x=("lefthippocampus", "gender")),
    "descriptive_stats": dict(y=("lefthippocampus", "gender", "alzheimerbroadcategory")),
}


@pytest.fixture()
def labels_refused(monkeypatch):
    values, run_udf = Column.values, database.run_udf
    in_body = threading.local()
    bodies = []

    def refuse(column):
        if column.sql_type == SQLType.VARCHAR and getattr(in_body, "active", False):
            raise AssertionError("a UDF body gathered a VARCHAR column's labels")
        return values.fget(column)

    def run_body(*args, **kwargs):
        bodies.append(args[0].name)
        in_body.active = True
        try:
            return run_udf(*args, **kwargs)
        finally:
            in_body.active = False

    monkeypatch.setattr(Column, "values", property(refuse))
    monkeypatch.setattr(database, "run_udf", run_body)
    return bodies


@pytest.mark.parametrize("algorithm", sorted(REQUESTS))
def test_runs_without_gathering_labels(federation, labels_refused, algorithm):
    request = REQUESTS[algorithm]
    result = ExperimentEngine(federation, aggregation="plain").run(
        ExperimentRequest(algorithm=algorithm, data_model="dementia",
                          datasets=("edsd", "adni", "ppmi"), **request)
    )
    assert result.status.value == "success", result.error
    assert labels_refused, "no UDF body ran under the refusal"
