"""Federated CART and ID3."""

import numpy as np
import pytest

from repro.udfgen.runtime import Relation
from repro.udfgen.udf_helpers import route_tree


def predict(tree, relation):
    leaves = route_tree(relation, tree)
    return [tree["nodes"][str(leaf)]["prediction"] for leaf in leaves.tolist()]


class TestCARTClassification:
    def test_tree_structure(self, run):
        result = run(
            "cart", y=["alzheimerbroadcategory"],
            x=["lefthippocampus", "p_tau", "gender"],
            parameters={"max_depth": 3},
        )
        assert result["task"] == "classification"
        tree = result["tree"]
        assert result["n_leaves"] + sum(
            1 for n in tree["nodes"].values() if n["type"] == "split"
        ) == result["n_nodes"]
        assert result["max_depth"] <= 3

    def test_split_reduces_gini(self, run):
        result = run(
            "cart", y=["alzheimerbroadcategory"],
            x=["lefthippocampus", "p_tau"],
            parameters={"max_depth": 2},
        )
        tree = result["tree"]
        for node in tree["nodes"].values():
            if node["type"] != "split":
                continue
            left = tree["nodes"][str(node["left"])]
            right = tree["nodes"][str(node["right"])]
            n = node["n"]
            weighted = (left["n"] * left["impurity"] + right["n"] * right["impurity"]) / n
            assert weighted <= node["impurity"] + 1e-12

    def test_children_partition_parent(self, run):
        result = run(
            "cart", y=["alzheimerbroadcategory"],
            x=["lefthippocampus", "p_tau"],
            parameters={"max_depth": 3},
        )
        tree = result["tree"]
        for node in tree["nodes"].values():
            if node["type"] == "split":
                left = tree["nodes"][str(node["left"])]
                right = tree["nodes"][str(node["right"])]
                assert left["n"] + right["n"] == node["n"]

    def test_min_samples_leaf_respected(self, run):
        result = run(
            "cart", y=["alzheimerbroadcategory"],
            x=["lefthippocampus", "p_tau"],
            parameters={"max_depth": 5, "min_samples_leaf": 25},
        )
        for node in result["tree"]["nodes"].values():
            if node["type"] == "leaf":
                assert node["n"] >= 25 or node["n"] == 0

    def test_predictions_beat_majority_class(self, run, pooled):
        result = run(
            "cart", y=["alzheimerbroadcategory"],
            x=["lefthippocampus", "p_tau", "gender"],
            parameters={"max_depth": 4},
        )
        rows = pooled("alzheimerbroadcategory", "lefthippocampus", "p_tau", "gender")
        relation = Relation({
            "lefthippocampus": np.array([r[1] for r in rows]),
            "p_tau": np.array([r[2] for r in rows]),
            "gender": np.array([r[3] for r in rows], dtype=object),
        })
        predictions = predict(result["tree"], relation)
        actual = [r[0] for r in rows]
        accuracy = np.mean([p == a for p, a in zip(predictions, actual)])
        majority = max(set(actual), key=actual.count)
        baseline = actual.count(majority) / len(actual)
        assert accuracy > baseline + 0.05

    def test_nominal_binary_split_supported(self, run):
        result = run(
            "cart", y=["alzheimerbroadcategory"], x=["gender", "va_etiology"],
            parameters={"max_depth": 2, "min_improvement": 0.0},
        )
        assert result["task"] == "classification"


class TestCARTRegression:
    def test_regression_tree(self, run):
        result = run(
            "cart", y=["minimentalstate"], x=["lefthippocampus", "agevalue"],
            parameters={"max_depth": 3},
        )
        assert result["task"] == "regression"
        root = result["tree"]["nodes"]["0"]
        assert isinstance(root["prediction"], float)

    def test_variance_reduction_tracks_signal(self, run):
        """MMSE is driven by hippocampal volume: the root splits on it."""
        result = run(
            "cart", y=["minimentalstate"], x=["lefthippocampus", "agevalue"],
            parameters={"max_depth": 2},
        )
        assert result["tree"]["nodes"]["0"]["feature"] == "lefthippocampus"

    def test_leaf_prediction_is_mean(self, run, pooled):
        result = run(
            "cart", y=["minimentalstate"], x=["lefthippocampus"],
            parameters={"max_depth": 1},
        )
        tree = result["tree"]
        root = tree["nodes"]["0"]
        if root["type"] == "split":
            rows = pooled("minimentalstate", "lefthippocampus")
            threshold = root["threshold"]
            left_values = [v for v, h in rows if h <= threshold]
            left = tree["nodes"][str(root["left"])]
            assert left["prediction"] == pytest.approx(np.mean(left_values), rel=1e-9)
            assert left["n"] == len(left_values)


class TestID3:
    def test_structure_and_gain(self, run):
        result = run(
            "id3", y=["alzheimerbroadcategory"],
            x=["gender", "psy_etiology", "va_etiology"],
            parameters={"max_depth": 3, "min_gain": 0.0},
        )
        tree = result["tree"]
        for node in tree["nodes"].values():
            if node["type"] == "split":
                assert node["gain"] >= 0
                assert set(node["children"]) >= {"no", "yes"} or set(node["children"]) == {"F", "M"}

    def test_feature_not_reused_on_path(self, run):
        result = run(
            "id3", y=["alzheimerbroadcategory"],
            x=["gender", "psy_etiology"],
            parameters={"max_depth": 4, "min_gain": 0.0, "min_samples_split": 2},
        )
        tree = result["tree"]

        def walk(node_id, seen):
            node = tree["nodes"][str(node_id)]
            if node["type"] != "split":
                return
            assert node["feature"] not in seen
            for child in node["children"].values():
                walk(child, seen | {node["feature"]})

        walk(tree["root"], set())

    def test_children_counts_sum(self, run):
        result = run(
            "id3", y=["alzheimerbroadcategory"],
            x=["gender", "psy_etiology", "va_etiology"],
            parameters={"max_depth": 2, "min_gain": 0.0},
        )
        tree = result["tree"]
        for node in tree["nodes"].values():
            if node["type"] == "split":
                children_n = sum(
                    tree["nodes"][str(c)]["n"] for c in node["children"].values()
                )
                assert children_n == node["n"]

    def test_max_depth_one_is_stump(self, run):
        result = run(
            "id3", y=["alzheimerbroadcategory"], x=["gender"],
            parameters={"max_depth": 1, "min_gain": 0.0},
        )
        assert result["max_depth"] <= 1
