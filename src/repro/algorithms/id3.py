"""Federated ID3: multiway decision trees over nominal features.

Classic ID3 splits a node on the categorical feature with the highest
information gain, creating one child per level.  Federated, each round
aggregates per (open leaf, candidate feature, level, class) counts via
secure sums; the master computes entropies and extends the tree.
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
    target=literal(),
    classes=literal(),
    features=literal(),
    feature_levels=literal(),
    tree=literal(),
    open_leaves=literal(),
    return_type=[secure_transfer()],
)
def id3_stats_local(data, target, classes, features, feature_levels, tree, open_leaves):
    """Per (leaf, feature, level) class counts for all open leaves."""
    assignment = _h.route_tree(data, tree)
    labels = data[target]
    payload = {}
    for leaf in open_leaves:
        leaf_mask = assignment == str(leaf)
        totals = _h.category_counts(labels[leaf_mask], classes)
        payload[f"leaf{leaf}_total"] = {"data": totals.tolist(), "operation": "sum"}
        for feature_index, feature in enumerate(features):
            values = data[feature][leaf_mask]
            labels_leaf = labels[leaf_mask]
            for level_index, level in enumerate(feature_levels[feature_index]):
                counts = _h.category_counts(labels_leaf[values == level], classes)
                payload[f"leaf{leaf}_f{feature_index}_l{level_index}"] = {
                    "data": counts.tolist(),
                    "operation": "sum",
                }
    return payload


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts[counts > 0] / total
    return float(-(proportions * np.log2(proportions)).sum())


@register_algorithm
class ID3(FederatedAlgorithm):
    """ID3 decision tree: nominal target, nominal features."""

    name = "id3"
    label = "ID3"
    needs_y = "required"
    needs_x = "required"
    y_types = ("nominal",)
    x_types = ("nominal",)
    parameters = (
        ParameterSpec("max_depth", "int", label="Maximum tree depth", default=4,
                      min_value=1, max_value=10),
        ParameterSpec("min_samples_split", "int", label="Minimum rows to split",
                      default=20, min_value=2),
        ParameterSpec("min_gain", "real", label="Minimum information gain",
                      default=1e-9, min_value=0.0),
    )

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import resolve_observed_levels

        target = self.y[0]
        variables = [target] + list(self.x)
        metadata = resolve_observed_levels(self, variables)
        classes = list(metadata.get(target, {}).get("enumerations", []))
        if len(classes) < 2:
            raise AlgorithmError(f"target {target!r} has fewer than 2 observed classes")
        feature_levels = [
            list(metadata.get(f, {}).get("enumerations", [])) for f in self.x
        ]
        view = self.data_view(variables)

        tree: dict[str, Any] = {
            "root": 0,
            "nodes": {"0": {"type": "leaf", "depth": 0, "used": []}},
        }
        open_leaves = [0]
        next_id = 1
        while open_leaves:
            handle = self.local_run(
                func=id3_stats_local,
                keyword_args={
                    "data": view,
                    "target": target,
                    "classes": classes,
                    "features": list(self.x),
                    "feature_levels": feature_levels,
                    "tree": copy.deepcopy(tree),
                    "open_leaves": open_leaves,
                },
                share_to_global=[True],
            )
            stats = self.ctx.get_transfer_data(handle)
            new_open: list[int] = []
            for leaf in open_leaves:
                node = tree["nodes"][str(leaf)]
                totals = np.asarray(stats[f"leaf{leaf}_total"], dtype=np.float64)
                node["n"] = int(totals.sum())
                node["class_counts"] = totals.astype(int).tolist()
                node["prediction"] = classes[int(totals.argmax())] if totals.sum() else None
                node["entropy"] = entropy(totals)
                if (
                    node["n"] < self.params["min_samples_split"]
                    or node["entropy"] == 0.0
                    or node["depth"] >= self.params["max_depth"]
                ):
                    continue
                best = self._best_feature(leaf, node, totals, feature_levels, stats)
                if best is None:
                    continue
                feature_index, gain, level_counts = best
                children: dict[str, int] = {}
                majority = classes[int(totals.argmax())]
                depth = node["depth"] + 1
                used = node["used"] + [self.x[feature_index]]
                default_child = None
                default_size = -1.0
                for level_index, level in enumerate(feature_levels[feature_index]):
                    counts = level_counts[level_index]
                    child_id = next_id
                    next_id += 1
                    child = {
                        "type": "leaf",
                        "depth": depth,
                        "used": used,
                        "n": int(counts.sum()),
                        "class_counts": counts.astype(int).tolist(),
                        "prediction": classes[int(counts.argmax())] if counts.sum() else majority,
                        "entropy": entropy(counts),
                    }
                    tree["nodes"][str(child_id)] = child
                    children[level] = child_id
                    if counts.sum() > default_size:
                        default_size = float(counts.sum())
                        default_child = child_id
                    if (
                        child["n"] >= self.params["min_samples_split"]
                        and child["entropy"] > 0
                        and depth < self.params["max_depth"]
                        and len(used) < len(self.x)
                    ):
                        new_open.append(child_id)
                node.update(
                    type="split",
                    feature=self.x[feature_index],
                    children=children,
                    default_child=default_child,
                    gain=gain,
                )
            open_leaves = new_open
        n_leaves = sum(1 for n in tree["nodes"].values() if n["type"] == "leaf")
        return {
            "tree": tree,
            "classes": classes,
            "n_nodes": len(tree["nodes"]),
            "n_leaves": n_leaves,
            "max_depth": max(n["depth"] for n in tree["nodes"].values()),
            "target": target,
        }

    def _best_feature(self, leaf, node, totals, feature_levels, stats):
        parent_entropy = entropy(totals)
        parent_n = totals.sum()
        best = None
        best_gain = self.params["min_gain"]
        for feature_index, feature in enumerate(self.x):
            if feature in node["used"]:
                continue
            level_counts = [
                np.asarray(stats[f"leaf{leaf}_f{feature_index}_l{i}"], dtype=np.float64)
                for i in range(len(feature_levels[feature_index]))
            ]
            weighted = sum(
                counts.sum() / parent_n * entropy(counts)
                for counts in level_counts
                if counts.sum() > 0
            )
            gain = parent_entropy - weighted
            if gain > best_gain:
                best_gain = gain
                best = (feature_index, float(gain), level_counts)
        return best
