"""Federated CART: greedy binary decision trees grown level by level.

Growing a tree federates as an iterative Master/Worker protocol:

1. candidate thresholds for numeric features come from securely aggregated
   histograms (quantile grid),
2. each round the master passes a snapshot of the tree so far to the
   local step as a literal (it grows the tree in place afterwards); workers
   route their rows to the open leaves and return, per (leaf, candidate
   split), the child statistics — class counts for classification, moment
   sums for regression — as secure sums,
3. the master scores candidates (Gini / variance reduction), splits leaves
   that clear the minimum-improvement and minimum-leaf-size bars, and
   repeats until the depth limit or no leaf can improve.

Nothing row-level ever leaves a worker; every exchanged quantity is an
aggregate over at least ``min_samples_leaf`` rows.
"""

from __future__ import annotations

import copy
from typing import Any

import numpy as np

from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError
from repro.udfgen import literal, relation, secure_transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)


@udf(
    data=relation(),
    features=literal(),
    metadata=literal(),
    n_bins=literal(),
    return_type=[secure_transfer()],
)
def cart_histograms_local(data, features, metadata, n_bins):
    """Histograms of numeric features for candidate-threshold selection."""
    payload = {}
    for index, feature in enumerate(features):
        info = metadata.get(feature, {})
        if info.get("is_categorical"):
            continue
        values = np.asarray(data[feature], dtype=np.float64)
        low = info.get("min")
        high = info.get("max")
        if low is None or high is None:
            low = float(values.min()) if len(values) else 0.0
            high = float(values.max()) if len(values) else 1.0
        edges = np.linspace(low, high, n_bins + 1)
        payload[f"hist_{index}"] = {
            "data": _h.histogram_counts(values, edges).tolist(),
            "operation": "sum",
        }
        payload[f"min_{index}"] = {"data": float(values.min()), "operation": "min"}
        payload[f"max_{index}"] = {"data": float(values.max()), "operation": "max"}
    return payload


@udf(
    data=relation(),
    target=literal(),
    classes=literal(),
    features=literal(),
    metadata=literal(),
    tree=literal(),
    candidates=literal(),
    open_leaves=literal(),
    return_type=[secure_transfer()],
)
def cart_split_stats_local(data, target, classes, features, metadata, tree, candidates, open_leaves):
    """Per-(leaf, candidate) child statistics.

    Classification (``classes`` non-empty): left/right class counts.
    Regression (``classes`` empty): left/right (n, sum, sumsq).
    """
    assignment = _h.route_tree(data, tree)
    target_values = data[target]
    payload = {}
    for leaf in open_leaves:
        leaf_mask = assignment == str(leaf)
        if classes:
            totals = _h.category_counts(target_values[leaf_mask], classes)
            payload[f"leaf{leaf}_total"] = {"data": totals.tolist(), "operation": "sum"}
        else:
            y_leaf = np.asarray(target_values[leaf_mask], dtype=np.float64)
            payload[f"leaf{leaf}_total"] = {
                "data": [float(len(y_leaf)), float(y_leaf.sum()), float((y_leaf**2).sum())],
                "operation": "sum",
            }
        for cand_index, candidate in enumerate(candidates):
            feature = candidate["feature"]
            values = data[feature][leaf_mask]
            if "threshold" in candidate:
                left_mask = np.asarray(values, dtype=np.float64) <= candidate["threshold"]
            else:
                left_mask = values == candidate["level"]
            key = f"leaf{leaf}_cand{cand_index}"
            if classes:
                y_leaf = target_values[leaf_mask]
                left_counts = _h.category_counts(y_leaf[left_mask], classes)
                payload[f"{key}_left"] = {"data": left_counts.tolist(), "operation": "sum"}
            else:
                y_leaf = np.asarray(target_values[leaf_mask], dtype=np.float64)
                y_left = y_leaf[left_mask]
                payload[f"{key}_left"] = {
                    "data": [float(len(y_left)), float(y_left.sum()), float((y_left**2).sum())],
                    "operation": "sum",
                }
    return payload


def gini(counts: np.ndarray) -> float:
    """Gini impurity of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - (proportions**2).sum())


def _variance_impurity(moments: np.ndarray) -> float:
    """n * variance from (n, sum, sumsq) — the SSE of predicting the mean."""
    n, total, total_squares = moments
    if n == 0:
        return 0.0
    return float(total_squares - total**2 / n)


@register_algorithm
class CART(FederatedAlgorithm):
    """Classification and regression trees over the federation."""

    name = "cart"
    label = "CART"
    needs_y = "required"
    needs_x = "required"
    y_types = ("nominal", "numeric")
    x_types = ("numeric", "nominal")
    parameters = (
        ParameterSpec("max_depth", "int", label="Maximum tree depth", default=4,
                      min_value=1, max_value=12),
        ParameterSpec("min_samples_leaf", "int", label="Minimum rows per leaf",
                      default=10, min_value=1),
        ParameterSpec("min_improvement", "real", label="Minimum impurity decrease",
                      default=1e-7, min_value=0.0),
        ParameterSpec("n_thresholds", "int", label="Candidate thresholds per numeric feature",
                      default=8, min_value=1, max_value=64),
    )

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import resolve_observed_levels

        target = self.y[0]
        variables = [target] + list(self.x)
        metadata = resolve_observed_levels(self, variables)
        target_info = metadata.get(target, {})
        is_classification = bool(target_info.get("is_categorical"))
        classes = list(target_info.get("enumerations", [])) if is_classification else []
        view = self.data_view(variables)

        candidates = self._collect_candidates(view, metadata)
        if not candidates:
            raise AlgorithmError("no usable split candidates for the given covariates")

        tree: dict[str, Any] = {
            "root": 0,
            "nodes": {"0": {"type": "leaf", "depth": 0}},
        }
        open_leaves = [0]
        next_id = 1
        for _ in range(self.params["max_depth"]):
            if not open_leaves:
                break
            handle = self.local_run(
                func=cart_split_stats_local,
                keyword_args={
                    "data": view,
                    "target": target,
                    "classes": classes,
                    "features": list(self.x),
                    "metadata": metadata,
                    "tree": copy.deepcopy(tree),
                    "candidates": candidates,
                    "open_leaves": open_leaves,
                },
                share_to_global=[True],
            )
            stats = self.ctx.get_transfer_data(handle)
            new_open: list[int] = []
            for leaf in open_leaves:
                total = np.asarray(stats[f"leaf{leaf}_total"], dtype=np.float64)
                node = tree["nodes"][str(leaf)]
                self._set_prediction(node, total, classes)
                best = self._best_split(leaf, total, candidates, stats, classes)
                if best is None:
                    continue
                cand, left_stats, right_stats = best
                left_id, right_id = next_id, next_id + 1
                next_id += 2
                node.update(type="split", feature=cand["feature"], left=left_id, right=right_id)
                if "threshold" in cand:
                    node["threshold"] = cand["threshold"]
                else:
                    node["level"] = cand["level"]
                depth = node["depth"] + 1
                for child_id, child_stats in ((left_id, left_stats), (right_id, right_stats)):
                    child: dict[str, Any] = {"type": "leaf", "depth": depth}
                    self._set_prediction(child, child_stats, classes)
                    tree["nodes"][str(child_id)] = child
                    if depth < self.params["max_depth"] and child["n"] >= 2 * self.params["min_samples_leaf"]:
                        if not (classes and child["impurity"] == 0.0):
                            new_open.append(child_id)
            open_leaves = new_open
        n_leaves = sum(1 for n in tree["nodes"].values() if n["type"] == "leaf")
        return {
            "tree": tree,
            "task": "classification" if is_classification else "regression",
            "classes": classes,
            "n_nodes": len(tree["nodes"]),
            "n_leaves": n_leaves,
            "max_depth": max(n["depth"] for n in tree["nodes"].values()),
            "target": target,
        }

    # ----------------------------------------------------------- internals

    def _collect_candidates(self, view, metadata) -> list[dict[str, Any]]:
        numeric_features = [
            f for f in self.x if not metadata.get(f, {}).get("is_categorical")
        ]
        candidates: list[dict[str, Any]] = []
        if numeric_features:
            handle = self.local_run(
                func=cart_histograms_local,
                keyword_args={
                    "data": view,
                    "features": list(self.x),
                    "metadata": metadata,
                    "n_bins": 128,
                },
                share_to_global=[True],
            )
            histograms = self.ctx.get_transfer_data(handle)
            n_thresholds = self.params["n_thresholds"]
            for index, feature in enumerate(self.x):
                if metadata.get(feature, {}).get("is_categorical"):
                    continue
                histogram = np.asarray(histograms[f"hist_{index}"], dtype=np.float64)
                info = metadata.get(feature, {})
                low = info.get("min")
                high = info.get("max")
                if low is None or high is None:
                    low = float(histograms[f"min_{index}"])
                    high = float(histograms[f"max_{index}"])
                edges = np.linspace(float(low), float(high), len(histogram) + 1)
                total = histogram.sum()
                if total == 0:
                    continue
                cumulative = np.cumsum(histogram) / total
                for quantile in np.linspace(0, 1, n_thresholds + 2)[1:-1]:
                    bin_index = int(np.searchsorted(cumulative, quantile))
                    bin_index = min(bin_index, len(histogram) - 1)
                    candidates.append(
                        {"feature": feature, "threshold": float(edges[bin_index + 1])}
                    )
        for feature in self.x:
            info = metadata.get(feature, {})
            if info.get("is_categorical"):
                for level in info.get("enumerations", []):
                    candidates.append({"feature": feature, "level": level})
        # De-duplicate identical thresholds.
        seen = set()
        unique = []
        for candidate in candidates:
            key = (candidate["feature"], candidate.get("threshold"), candidate.get("level"))
            if key not in seen:
                seen.add(key)
                unique.append(candidate)
        return unique

    def _set_prediction(self, node: dict[str, Any], stats: np.ndarray, classes: list[str]) -> None:
        if classes:
            counts = np.asarray(stats, dtype=np.float64)
            node["n"] = int(counts.sum())
            node["class_counts"] = counts.astype(int).tolist()
            node["prediction"] = classes[int(counts.argmax())] if counts.sum() else None
            node["impurity"] = gini(counts)
        else:
            n, total, _ = stats
            node["n"] = int(n)
            node["prediction"] = float(total / n) if n else 0.0
            node["impurity"] = _variance_impurity(stats) / n if n else 0.0

    def _best_split(self, leaf, total, candidates, stats, classes):
        min_leaf = self.params["min_samples_leaf"]
        if classes:
            parent_impurity = gini(np.asarray(total))
            parent_n = float(np.asarray(total).sum())
        else:
            parent_impurity = _variance_impurity(np.asarray(total))
            parent_n = float(total[0])
        if parent_n < 2 * min_leaf:
            return None
        best = None
        best_gain = self.params["min_improvement"]
        for cand_index, candidate in enumerate(candidates):
            left = np.asarray(stats[f"leaf{leaf}_cand{cand_index}_left"], dtype=np.float64)
            right = np.asarray(total, dtype=np.float64) - left
            if classes:
                n_left, n_right = left.sum(), right.sum()
                if n_left < min_leaf or n_right < min_leaf:
                    continue
                gain = parent_impurity - (
                    n_left / parent_n * gini(left) + n_right / parent_n * gini(right)
                )
            else:
                n_left, n_right = left[0], right[0]
                if n_left < min_leaf or n_right < min_leaf:
                    continue
                gain = (
                    parent_impurity
                    - _variance_impurity(left)
                    - _variance_impurity(right)
                ) / parent_n
            if gain > best_gain:
                best_gain = gain
                best = (candidate, left, right)
        return best
