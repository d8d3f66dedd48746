"""Statistical helpers available inside generated UDF bodies (as ``_h``).

Local computation steps run inside the engine with a deliberately small
namespace: numpy (``np``), the serialization runtime (``_rt``), and this
module (``_h``).  Everything here depends only on numpy so UDF bodies stay
self-contained.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np


def build_design_matrix(
    relation: Any,
    covariates: Sequence[str],
    metadata: Mapping[str, Mapping[str, Any]],
    intercept: bool = True,
) -> tuple[np.ndarray, list[str]]:
    """Assemble a regression design matrix from a relation.

    Numeric covariates enter directly; nominal covariates are dummy-coded
    against their first enumeration level (the reference), with the level
    list taken from the Common Data Element metadata so every worker encodes
    identically.
    """
    columns: list[np.ndarray] = []
    names: list[str] = []
    n_rows = len(relation)
    if intercept:
        columns.append(np.ones(n_rows))
        names.append("intercept")
    for variable in covariates:
        info = metadata.get(variable, {})
        if info.get("is_categorical"):
            levels = list(info.get("enumerations", []))
            if not levels:
                raise ValueError(f"nominal variable {variable!r} has no enumerations")
            values = relation[variable]
            for level in levels[1:]:
                columns.append((values == level).astype(np.float64))
                names.append(f"{variable}[{level}]")
        else:
            columns.append(np.asarray(relation[variable], dtype=np.float64))
            names.append(variable)
    if not columns:
        return np.empty((n_rows, 0)), []
    return np.column_stack(columns), names


def regression_sufficient_stats(design: np.ndarray, response: np.ndarray) -> dict[str, Any]:
    """The additively aggregatable statistics of a linear model.

    X^T X, X^T y, y^T y, sum(y) and n are enough for OLS coefficients,
    standard errors, and goodness-of-fit — so one local pass suffices.
    """
    response = np.asarray(response, dtype=np.float64)
    return {
        "xtx": design.T @ design,
        "xty": design.T @ response,
        "yty": float(response @ response),
        "sum_y": float(response.sum()),
        "n": int(len(response)),
    }


def histogram_counts(values: np.ndarray, edges: Sequence[float]) -> np.ndarray:
    """Counts of values per bin for a fixed global edge grid."""
    counts, _ = np.histogram(np.asarray(values, dtype=np.float64), bins=np.asarray(edges))
    return counts.astype(np.int64)


def fold_assignments(n_rows: int, n_folds: int, seed: int) -> np.ndarray:
    """Deterministic, balanced fold labels for local cross-validation splits."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n_rows) % n_folds
    rng.shuffle(labels)
    return labels


def category_counts(values: np.ndarray, levels: Sequence[Any]) -> np.ndarray:
    """Occurrences of each level, in level order."""
    values = np.asarray(values)
    return np.array([int((values == level).sum()) for level in levels], dtype=np.int64)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: one exponential
    # of -|z| serves both, so nothing overflows and nothing is gathered.
    decay = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, decay) / (1.0 + decay)


def logistic_gradient_hessian(
    design: np.ndarray, response: np.ndarray, beta: np.ndarray
) -> dict[str, Any]:
    """Per-node Newton-step statistics for logistic regression."""
    response = np.asarray(response, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    probabilities = sigmoid(design @ beta)
    gradient = design.T @ (response - probabilities)
    weights = probabilities * (1.0 - probabilities)
    hessian = design.T @ (design * weights[:, None])
    eps = 1e-12
    clipped = np.clip(probabilities, eps, 1.0 - eps)
    log_likelihood = float(
        np.sum(response * np.log(clipped) + (1.0 - response) * np.log(1.0 - clipped))
    )
    return {
        "gradient": gradient,
        "hessian": hessian,
        "log_likelihood": log_likelihood,
        "n": int(len(response)),
    }


def model_gradient(
    design: np.ndarray, response: np.ndarray, weights: np.ndarray, model_kind: str
) -> np.ndarray:
    """Mean-loss gradient for the federated trainer's model kinds.

    ``"logistic"``: negative log-likelihood; ``"linear"``: squared error.
    """
    n = max(len(response), 1)
    if model_kind == "logistic":
        probabilities = sigmoid(design @ weights)
        return design.T @ (probabilities - response) / n
    if model_kind == "linear":
        residuals = design @ weights - response
        return 2.0 * design.T @ residuals / n
    raise ValueError(f"unknown model kind {model_kind!r}")


def model_loss_sums(
    design: np.ndarray, response: np.ndarray, weights: np.ndarray, model_kind: str
) -> tuple[float, int]:
    """(loss sum, correct-prediction count) for evaluation aggregation.

    For linear models the correct-count is 0 (accuracy is not defined).
    """
    if model_kind == "logistic":
        probabilities = np.clip(sigmoid(design @ weights), 1e-12, 1 - 1e-12)
        loss_sum = float(
            -np.sum(response * np.log(probabilities)
                    + (1 - response) * np.log(1 - probabilities))
        )
        correct = int(np.sum((probabilities >= 0.5) == (response > 0.5)))
        return loss_sum, correct
    if model_kind == "linear":
        residuals = design @ weights - response
        return float(np.sum(residuals**2)), 0
    raise ValueError(f"unknown model kind {model_kind!r}")


def confusion_counts(
    actual: np.ndarray, predicted_probability: np.ndarray, threshold: float = 0.5
) -> dict[str, int]:
    """Binary confusion-matrix counts at a probability threshold."""
    actual = np.asarray(actual, dtype=bool)
    predicted = np.asarray(predicted_probability, dtype=np.float64) >= threshold
    return {
        "tp": int(np.sum(actual & predicted)),
        "fp": int(np.sum(~actual & predicted)),
        "fn": int(np.sum(actual & ~predicted)),
        "tn": int(np.sum(~actual & ~predicted)),
    }


def apply_scaler(design: np.ndarray, scaler: Mapping[str, Any] | None) -> np.ndarray:
    """Standardize design columns with precomputed global means/stds.

    ``scaler`` is ``{"means": [...], "stds": [...]}`` aligned to the design
    columns; entries with std 0 (e.g. the intercept) pass through unscaled.
    ``None`` disables scaling.
    """
    if scaler is None:
        return design
    means = np.asarray(scaler["means"], dtype=np.float64)
    stds = np.asarray(scaler["stds"], dtype=np.float64)
    scaled = design.copy()
    active = stds > 0
    scaled[:, active] = (design[:, active] - means[active]) / stds[active]
    return scaled


def route_tree(relation: Any, tree: Mapping[str, Any]) -> np.ndarray:
    """Assign every row of a relation to a leaf of a decision tree.

    ``tree`` is the JSON form used by the federated CART/ID3 algorithms:
    ``{"nodes": {id: node}, "root": id}`` where a split node has either
    ``feature``/``threshold`` (numeric, <= goes left), ``feature``/``level``
    (binary nominal, == goes left) with ``left``/``right`` child ids, or
    ``feature``/``children`` ({level: child id}, ID3 multiway).  Returns the
    leaf node id (as str) per row.
    """
    nodes = tree["nodes"]
    n_rows = len(relation)
    assignment = np.full(n_rows, str(tree["root"]), dtype=object)
    changed = True
    while changed:
        changed = False
        for node_id in list(np.unique(assignment)):
            node = nodes[str(node_id)]
            if node["type"] != "split":
                continue
            mask = assignment == node_id
            values = relation[node["feature"]]
            if "children" in node:
                for level, child in node["children"].items():
                    assignment[mask & (values == level)] = str(child)
                # Unseen levels fall through to the designated default child.
                still = assignment == node_id
                if still.any():
                    assignment[still] = str(node["default_child"])
            elif "threshold" in node:
                numeric = np.asarray(values, dtype=np.float64)
                go_left = mask & (numeric <= node["threshold"])
                assignment[go_left] = str(node["left"])
                assignment[mask & ~go_left] = str(node["right"])
            else:
                go_left = mask & (values == node["level"])
                assignment[go_left] = str(node["left"])
                assignment[mask & ~go_left] = str(node["right"])
            changed = True
    return assignment


def score_histograms(
    actual: np.ndarray, scores: np.ndarray, n_bins: int = 100
) -> dict[str, np.ndarray]:
    """Per-bin positive/negative score counts (for federated ROC/AUC)."""
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    actual = np.asarray(actual, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    positives, _ = np.histogram(scores[actual], bins=edges)
    negatives, _ = np.histogram(scores[~actual], bins=edges)
    return {"positives": positives.astype(np.int64), "negatives": negatives.astype(np.int64)}
