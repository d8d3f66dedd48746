"""The observed-levels local step: which catalogued levels a site holds."""

import numpy as np

from repro.algorithms.preprocessing import observed_levels_local
from repro.udfgen.runtime import Relation

METADATA = {
    "diagnosis": {"is_categorical": True, "enumerations": ["AD", "MCI", "CN", "Other"]},
    "gender": {"is_categorical": True, "enumerations": ["F", "M"]},
    "age": {"is_categorical": False},
}


def reference(data, variables, metadata):
    """The one-comparison-per-level form the step used to take."""
    payload = {}
    for variable in variables:
        levels = list(metadata.get(variable, {}).get("enumerations", []))
        values = data[variable]
        present = [int((values == level).any()) for level in levels]
        payload[variable] = {"data": present, "operation": "union"}
    return payload


def relation(diagnosis, gender):
    return Relation({
        "diagnosis": np.array(diagnosis, dtype=object),
        "gender": np.array(gender, dtype=object),
        "age": np.arange(len(diagnosis), dtype=np.float64),
    })


class TestObservedLevels:
    def test_unobserved_levels_are_zero(self):
        data = relation(["CN", "AD", "CN", "CN"], ["M", "M", "M", "M"])
        payload = observed_levels_local(data, ["diagnosis", "gender"], METADATA)
        assert payload == {
            "diagnosis": {"data": [1, 0, 1, 0], "operation": "union"},
            "gender": {"data": [0, 1], "operation": "union"},
        }
        assert payload == reference(data, ["diagnosis", "gender"], METADATA)

    def test_empty_relation_observes_nothing(self):
        data = relation([], [])
        payload = observed_levels_local(data, ["diagnosis", "gender"], METADATA)
        assert payload == {
            "diagnosis": {"data": [0, 0, 0, 0], "operation": "union"},
            "gender": {"data": [0, 0], "operation": "union"},
        }
        assert payload == reference(data, ["diagnosis", "gender"], METADATA)

    def test_missing_values_and_uncatalogued_variables(self):
        data = relation(["AD", None, "Other"], ["F", None, "F"])
        variables = ["diagnosis", "gender", "age"]
        payload = observed_levels_local(data, variables, METADATA)
        assert payload["diagnosis"]["data"] == [1, 0, 0, 1]
        assert payload["age"] == {"data": [], "operation": "union"}
        assert payload == reference(data, variables, METADATA)
