"""Statistical helpers used inside UDF bodies."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.udfgen.runtime import Relation
from repro.udfgen.udf_helpers import (
    apply_scaler,
    build_design_matrix,
    category_counts,
    confusion_counts,
    fold_assignments,
    histogram_counts,
    logistic_gradient_hessian,
    regression_sufficient_stats,
    route_tree,
    score_histograms,
    sigmoid,
)


class TestDesignMatrix:
    def test_numeric_with_intercept(self):
        rel = Relation({"x": np.array([1.0, 2.0])})
        design, names = build_design_matrix(rel, ["x"], {})
        assert names == ["intercept", "x"]
        assert design.tolist() == [[1.0, 1.0], [1.0, 2.0]]

    def test_nominal_dummy_coding_reference_level(self):
        rel = Relation({"g": np.array(["a", "b", "c"], dtype=object)})
        metadata = {"g": {"is_categorical": True, "enumerations": ["a", "b", "c"]}}
        design, names = build_design_matrix(rel, ["g"], metadata)
        assert names == ["intercept", "g[b]", "g[c]"]
        assert design[:, 1].tolist() == [0.0, 1.0, 0.0]
        assert design[:, 2].tolist() == [0.0, 0.0, 1.0]

    def test_no_intercept(self):
        rel = Relation({"x": np.array([1.0])})
        design, names = build_design_matrix(rel, ["x"], {}, intercept=False)
        assert names == ["x"]

    def test_nominal_without_enumerations_raises(self):
        rel = Relation({"g": np.array(["a"], dtype=object)})
        with pytest.raises(ValueError):
            build_design_matrix(rel, ["g"], {"g": {"is_categorical": True}})

    def test_empty_covariates(self):
        rel = Relation({"x": np.array([1.0, 2.0])})
        design, names = build_design_matrix(rel, [], {}, intercept=False)
        assert design.shape == (2, 0)


class TestSufficientStats:
    def test_matches_direct_computation(self):
        design = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        y = np.array([1.0, 2.0, 3.0])
        stats = regression_sufficient_stats(design, y)
        assert np.allclose(stats["xtx"], design.T @ design)
        assert np.allclose(stats["xty"], design.T @ y)
        assert stats["yty"] == pytest.approx(14.0)
        assert stats["sum_y"] == pytest.approx(6.0)
        assert stats["n"] == 3

    def test_additivity(self):
        """Sharding the rows and summing the stats equals the pooled stats."""
        rng = np.random.default_rng(0)
        design = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        whole = regression_sufficient_stats(design, y)
        part1 = regression_sufficient_stats(design[:7], y[:7])
        part2 = regression_sufficient_stats(design[7:], y[7:])
        assert np.allclose(part1["xtx"] + part2["xtx"], whole["xtx"])
        assert np.allclose(part1["xty"] + part2["xty"], whole["xty"])
        assert part1["n"] + part2["n"] == whole["n"]


class TestFoldAssignments:
    def test_balanced(self):
        folds = fold_assignments(10, 5, seed=1)
        counts = np.bincount(folds, minlength=5)
        assert counts.tolist() == [2, 2, 2, 2, 2]

    def test_deterministic(self):
        assert np.array_equal(fold_assignments(20, 4, 7), fold_assignments(20, 4, 7))

    def test_different_seed_differs(self):
        assert not np.array_equal(fold_assignments(50, 5, 1), fold_assignments(50, 5, 2))


class TestSigmoid:
    def test_extreme_values_stable(self):
        assert sigmoid(np.array([1000.0]))[0] == pytest.approx(1.0)
        assert sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0)

    @staticmethod
    def masked_sigmoid(z):
        """The two-branch form the one-pass sigmoid replaced; kept as its oracle."""
        z = np.asarray(z, dtype=np.float64)
        out = np.empty_like(z)
        positive = z >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
        exp_z = np.exp(z[~positive])
        out[~positive] = exp_z / (1.0 + exp_z)
        return out

    @pytest.mark.parametrize("z", [
        np.random.default_rng(3).normal(scale=4.0, size=1960),
        np.random.default_rng(4).normal(scale=40.0, size=(98, 20)),
        np.array([0.0, -0.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf, np.nan]),
        np.array([]),
        np.zeros((0, 3)),
    ], ids=["normal", "wide-2d", "edges", "empty", "empty-2d"])
    def test_bit_identical_to_the_masked_form(self, z):
        with np.errstate(all="raise", under="ignore"):
            result = sigmoid(z)
        assert result.shape == z.shape
        assert result.dtype == np.float64
        assert np.array_equal(result, self.masked_sigmoid(z), equal_nan=True)

    @given(st.floats(-50, 50))
    def test_range(self, z):
        value = sigmoid(np.array([z]))[0]
        assert 0.0 <= value <= 1.0

    def test_symmetry(self):
        z = np.array([0.3, -1.2])
        assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0)


class TestLogisticStats:
    def test_gradient_at_separating_point(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0])
        beta = np.zeros(2)
        stats = logistic_gradient_hessian(design, y, beta)
        # p = 0.5 everywhere: gradient = X^T (y - 0.5)
        assert np.allclose(stats["gradient"], design.T @ (y - 0.5))
        assert stats["log_likelihood"] == pytest.approx(2 * np.log(0.5))
        assert stats["n"] == 2


class TestCountsAndHistograms:
    def test_category_counts(self):
        values = np.array(["a", "b", "a"], dtype=object)
        assert category_counts(values, ["a", "b", "c"]).tolist() == [2, 1, 0]

    def test_histogram_counts(self):
        counts = histogram_counts(np.array([0.1, 0.5, 0.9]), [0.0, 0.5, 1.0])
        assert counts.tolist() == [1, 2]

    def test_confusion_counts(self):
        actual = np.array([True, True, False, False])
        scores = np.array([0.9, 0.2, 0.8, 0.1])
        counts = confusion_counts(actual, scores, 0.5)
        assert counts == {"tp": 1, "fp": 1, "fn": 1, "tn": 1}

    def test_score_histograms_partition(self):
        actual = np.array([True, False, True])
        scores = np.array([0.95, 0.5, 0.05])
        hists = score_histograms(actual, scores, n_bins=10)
        assert hists["positives"].sum() == 2
        assert hists["negatives"].sum() == 1


class TestApplyScaler:
    def test_standardizes_active_columns(self):
        design = np.array([[1.0, 10.0], [1.0, 20.0]])
        scaler = {"means": [0.0, 15.0], "stds": [0.0, 5.0]}
        scaled = apply_scaler(design, scaler)
        assert scaled[:, 0].tolist() == [1.0, 1.0]  # intercept untouched
        assert scaled[:, 1].tolist() == [-1.0, 1.0]

    def test_none_is_identity(self):
        design = np.array([[2.0]])
        assert apply_scaler(design, None) is design


class TestRouteTree:
    def test_numeric_split(self):
        rel = Relation({"x": np.array([1.0, 5.0])})
        tree = {
            "root": 0,
            "nodes": {
                "0": {"type": "split", "feature": "x", "threshold": 3.0, "left": 1, "right": 2},
                "1": {"type": "leaf"},
                "2": {"type": "leaf"},
            },
        }
        assert route_tree(rel, tree).tolist() == ["1", "2"]

    def test_nominal_binary_split(self):
        rel = Relation({"g": np.array(["a", "b"], dtype=object)})
        tree = {
            "root": 0,
            "nodes": {
                "0": {"type": "split", "feature": "g", "level": "a", "left": 1, "right": 2},
                "1": {"type": "leaf"},
                "2": {"type": "leaf"},
            },
        }
        assert route_tree(rel, tree).tolist() == ["1", "2"]

    def test_multiway_split_with_default(self):
        rel = Relation({"g": np.array(["a", "b", "zzz"], dtype=object)})
        tree = {
            "root": 0,
            "nodes": {
                "0": {
                    "type": "split", "feature": "g",
                    "children": {"a": 1, "b": 2}, "default_child": 2,
                },
                "1": {"type": "leaf"},
                "2": {"type": "leaf"},
            },
        }
        assert route_tree(rel, tree).tolist() == ["1", "2", "2"]

    def test_two_level_tree(self):
        rel = Relation({"x": np.array([1.0, 4.0, 9.0])})
        tree = {
            "root": 0,
            "nodes": {
                "0": {"type": "split", "feature": "x", "threshold": 5.0, "left": 1, "right": 2},
                "1": {"type": "split", "feature": "x", "threshold": 2.0, "left": 3, "right": 4},
                "2": {"type": "leaf"},
                "3": {"type": "leaf"},
                "4": {"type": "leaf"},
            },
        }
        assert route_tree(rel, tree).tolist() == ["3", "4", "2"]
