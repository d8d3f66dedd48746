"""Statistical helpers available inside generated UDF bodies (as ``_h``).

Local computation steps run inside the engine with a deliberately small
namespace: numpy (``np``), the serialization runtime (``_rt``), and this
module (``_h``).  Everything here depends only on numpy and the runtime so
UDF bodies stay self-contained.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.udfgen import runtime


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

    The matrix is read-only and cached on the relation
    (:meth:`~repro.udfgen.runtime.Relation.cached`): every later step of an
    experiment gets the one its first step built.
    """
    relation = _as_relation(relation)
    # Only the covariates, the levels of the nominal ones and the intercept
    # shape the matrix: that is the cache key.
    levels = tuple(
        tuple(info.get("enumerations", ())) if info.get("is_categorical") else None
        for info in (metadata.get(variable, {}) for variable in covariates)
    )
    design, names = relation.cached(
        ("design", tuple(covariates), levels, intercept),
        lambda: _design_matrix(relation, covariates, metadata, intercept),
    )
    return design, list(names)


def numeric_matrix(data: Any, variables: Sequence[str]) -> np.ndarray:
    """``data.to_matrix(variables)``, for a body that is also called with a
    plain mapping of columns outside the engine."""
    return _as_relation(data).to_matrix(variables)


def _as_relation(data: Any) -> runtime.Relation:
    return data if isinstance(data, runtime.Relation) else runtime.Relation(data)


def _design_matrix(
    relation: Any,
    covariates: Sequence[str],
    metadata: Mapping[str, Mapping[str, Any]],
    intercept: bool,
) -> tuple[np.ndarray, list[str]]:
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
            codes = relation.codes(variable, levels)
            for index, level in enumerate(levels[1:], start=1):
                columns.append((codes == index).astype(np.float64))
                names.append(f"{variable}[{level}]")
        else:
            columns.append(np.asarray(relation[variable], dtype=np.float64))
            names.append(variable)
    return runtime.stack_columns(columns, n_rows), names


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


def regression_payload(design: np.ndarray, response: np.ndarray) -> dict[str, Any]:
    """:func:`regression_sufficient_stats` as secure-sum transfer entries."""
    stats = regression_sufficient_stats(design, response)
    return {
        "xtx": {"data": stats["xtx"].tolist(), "operation": "sum"},
        "xty": {"data": stats["xty"].tolist(), "operation": "sum"},
        "yty": {"data": stats["yty"], "operation": "sum"},
        "sum_y": {"data": stats["sum_y"], "operation": "sum"},
        "n": {"data": stats["n"], "operation": "sum"},
    }


def response_vector(relation: Any, response: str, positive_level: Any) -> np.ndarray:
    """The float response of a model: 1.0 where a nominal response equals
    ``positive_level`` and 0.0 elsewhere, or a numeric response as it is
    when ``positive_level`` is None."""
    relation = _as_relation(relation)
    if positive_level is None:
        return np.asarray(relation[response], dtype=np.float64)
    return (relation.codes(response, (positive_level,)) == 0).astype(np.float64)


def class_feature_sums(
    relation: Any,
    features: Sequence[str],
    metadata: Mapping[str, Mapping[str, Any]],
    class_masks: Sequence[np.ndarray],
) -> dict[str, Any]:
    """Secure-sum entries of Naive Bayes statistics, per class mask.

    For class ``c`` (the rows of ``class_masks[c]``): the row count
    ``n_{c}``, and per feature ``f`` the level counts ``f{f}_c{c}_counts``
    of a nominal feature or the moment sums ``f{f}_c{c}_sum`` / ``_sumsq``
    of a numeric one.
    """
    relation = _as_relation(relation)
    payload = {}
    for class_index, mask in enumerate(class_masks):
        payload[f"n_{class_index}"] = {"data": int(mask.sum()), "operation": "sum"}
        for feature_index, feature in enumerate(features):
            info = metadata.get(feature, {})
            key = f"f{feature_index}_c{class_index}"
            if info.get("is_categorical"):
                levels = list(info.get("enumerations", []))
                counts = category_counts(relation.codes(feature, levels)[mask], len(levels))
                payload[f"{key}_counts"] = {"data": counts.tolist(), "operation": "sum"}
            else:
                numeric = np.asarray(relation[feature], dtype=np.float64)[mask]
                payload[f"{key}_sum"] = {"data": float(numeric.sum()), "operation": "sum"}
                payload[f"{key}_sumsq"] = {"data": float((numeric**2).sum()), "operation": "sum"}
    return payload


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


def category_counts(codes: np.ndarray, n_levels: int) -> np.ndarray:
    """Rows per level, in level order, from codes into ``n_levels`` levels
    (:meth:`~repro.udfgen.runtime.Relation.codes`): one ``bincount``, in
    which a -1 (NULL or undeclared) counts nowhere."""
    return np.bincount(codes[codes >= 0], minlength=n_levels)


def cross_counts(*factors: tuple[np.ndarray, int]) -> np.ndarray:
    """Rows per combination of codes, shaped by the factors' level counts.

    Each factor is ``(codes, n_levels)``; the codes combine row-major into
    one code per row, so the whole contingency table is one
    :func:`category_counts`.  A row with a -1 in any factor counts nowhere.
    """
    (joint, size), *rest = factors
    shape = [size]
    for codes, n_levels in rest:
        joint = np.where((joint >= 0) & (codes >= 0), joint * n_levels + codes, -1)
        shape.append(n_levels)
    return category_counts(joint, int(np.prod(shape))).reshape(shape)


def leaf_positions(assignment: np.ndarray, open_leaves: Sequence[int]) -> np.ndarray:
    """Each row's position in ``open_leaves`` of its leaf (the ids
    :func:`route_tree` returns); -1 for a row in no open leaf."""
    lookup = np.full(max(int(assignment.max(initial=0)), *open_leaves, 0) + 1, -1, dtype=np.intp)
    lookup[list(open_leaves)] = np.arange(len(open_leaves))
    return lookup[assignment]


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


def clipped_gradient(
    design: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray,
    model_kind: str,
    clip_norm: float,
) -> np.ndarray:
    """Mean-loss gradient for the federated trainer's model kinds, scaled
    down to L2 norm ``clip_norm`` when it is longer: the per-worker
    sensitivity bound of a private update.

    ``"logistic"``: negative log-likelihood; ``"linear"``: squared error.
    """
    n = max(len(response), 1)
    if model_kind == "logistic":
        probabilities = sigmoid(design @ weights)
        gradient = design.T @ (probabilities - response) / n
    elif model_kind == "linear":
        residuals = design @ weights - response
        gradient = 2.0 * design.T @ residuals / n
    else:
        raise ValueError(f"unknown model kind {model_kind!r}")
    norm = float(np.linalg.norm(gradient))
    if norm > clip_norm and norm > 0:
        gradient = gradient * (clip_norm / norm)
    return gradient


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
    ``feature``/``children`` ({level: child id}, ID3 multiway).  Returns each
    row's leaf node id as an int (``nodes`` is keyed by its str).

    A NULL or a label the split does not name goes to ``default_child`` on a
    multiway split and right on a binary one; a NULL goes right on a
    threshold split.
    """
    relation = _as_relation(relation)
    nodes = tree["nodes"]
    assignment = np.full(len(relation), int(tree["root"]), dtype=np.intp)
    pending = [int(tree["root"])]
    while pending:
        node_id = pending.pop()
        node = nodes[str(node_id)]
        if node["type"] != "split":
            continue
        rows = np.flatnonzero(assignment == node_id)
        feature = node["feature"]
        if "children" in node:
            # Code -1 picks the last target: the default child.
            targets = np.array([*node["children"].values(), node["default_child"]], dtype=np.intp)
            assignment[rows] = targets[relation.codes(feature, tuple(node["children"]))[rows]]
            pending.extend(set(targets.tolist()))
            continue
        if "threshold" in node:
            go_left = np.asarray(relation[feature], dtype=np.float64)[rows] <= node["threshold"]
        else:
            go_left = relation.codes(feature, (node["level"],))[rows] == 0
        assignment[rows] = np.where(go_left, int(node["left"]), int(node["right"]))
        pending.extend((int(node["left"]), int(node["right"])))
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
