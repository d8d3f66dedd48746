"""Federated Naive Bayes (Gaussian for numeric, categorical for nominal
features) with a cross-validated variant.

Training aggregates, per class: counts, per-numeric-feature moment sums, and
per-nominal-feature level counts — all secure sums.  The CV variant computes
per-fold statistics in one pass and scores held-out rows with the per-fold
models, passed to the local step as a literal.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError
from repro.observability.log import get_logger
from repro.udfgen import literal, relation, secure_transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)

logger = get_logger("algorithms.naive_bayes")

#: Variance floor for Gaussian likelihoods (relative to feature scale).
VAR_SMOOTHING = 1e-9


@udf(
    data=relation(),
    target=literal(),
    classes=literal(),
    features=literal(),
    metadata=literal(),
    return_type=[secure_transfer()],
)
def naive_bayes_fit_local(data, target, classes, features, metadata):
    """Per-class sufficient statistics for all features."""
    labels = data.codes(target, classes)
    masks = [labels == index for index in range(len(classes))]
    return _h.class_feature_sums(data, features, metadata, masks)


@udf(
    data=relation(),
    target=literal(),
    features=literal(),
    metadata=literal(),
    model=literal(),
    n_folds=literal(),
    seed=literal(),
    return_type=[secure_transfer()],
)
def naive_bayes_eval_local(data, target, features, metadata, model, n_folds, seed):
    """Held-out multiclass confusion counts per fold.

    ``model`` carries one Naive Bayes model per fold (trained on the other
    folds); each worker scores only its rows of the held-out fold.
    """
    classes = model["classes"]
    labels = data.codes(target, classes)
    folds = _h.fold_assignments(len(labels), n_folds, seed)
    payload = {}
    for held_out in range(n_folds):
        fold_model = model["models"][held_out]
        mask = folds == held_out
        confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
        indices = np.flatnonzero(mask)
        if len(indices):
            log_scores = np.tile(
                np.log(np.asarray(fold_model["priors"], dtype=np.float64)),
                (len(indices), 1),
            )
            for feature_index, feature in enumerate(features):
                info = metadata.get(feature, {})
                if info.get("is_categorical"):
                    idx = data.codes(feature, list(info.get("enumerations", [])))[mask]
                    if (idx < 0).any():
                        raise ValueError(f"{feature!r} holds a level outside its enumerations")
                else:
                    numeric = np.asarray(data[feature], dtype=np.float64)[mask]
                for class_index in range(len(classes)):
                    params = fold_model["features"][feature_index][class_index]
                    if info.get("is_categorical"):
                        probabilities = np.asarray(params["level_probs"], dtype=np.float64)
                        log_scores[:, class_index] += np.log(probabilities[idx])
                    else:
                        mean = params["mean"]
                        variance = params["var"]
                        log_scores[:, class_index] += (
                            -0.5 * np.log(2 * np.pi * variance)
                            - (numeric - mean) ** 2 / (2 * variance)
                        )
            actual = labels[mask]
            if (actual < 0).any():
                raise ValueError(f"{target!r} holds a class outside the model's classes")
            predicted = log_scores.argmax(axis=1)
            confusion = _h.cross_counts((actual, len(classes)), (predicted, len(classes)))
        payload[f"confusion_{held_out}"] = {
            "data": confusion.tolist(), "operation": "sum",
        }
    return payload


def build_model(
    classes: list[str],
    features: list[str],
    metadata: dict[str, Any],
    aggregates: dict[str, Any],
    alpha: float,
) -> dict[str, Any]:
    """Assemble the Naive Bayes parameters from aggregated statistics."""
    class_counts = np.array(
        [float(aggregates[f"n_{i}"]) for i in range(len(classes))]
    )
    total = class_counts.sum()
    if total == 0:
        raise AlgorithmError("no training observations")
    priors = (class_counts + alpha) / (total + alpha * len(classes))
    feature_params: list[list[dict[str, Any]]] = []
    for feature_index, feature in enumerate(features):
        info = metadata.get(feature, {})
        per_class: list[dict[str, Any]] = []
        for class_index in range(len(classes)):
            key = f"f{feature_index}_c{class_index}"
            n_class = class_counts[class_index]
            if info.get("is_categorical"):
                counts = np.asarray(aggregates[f"{key}_counts"], dtype=np.float64)
                probabilities = (counts + alpha) / (n_class + alpha * len(counts))
                per_class.append({"level_probs": probabilities.tolist()})
            else:
                total_sum = float(aggregates[f"{key}_sum"])
                total_squares = float(aggregates[f"{key}_sumsq"])
                mean = total_sum / n_class if n_class else 0.0
                variance = (
                    max(total_squares / n_class - mean**2, 0.0) if n_class else 1.0
                )
                per_class.append({"mean": mean, "var": variance + VAR_SMOOTHING + 1e-12})
        feature_params.append(per_class)
    return {
        "classes": classes,
        "priors": priors.tolist(),
        "class_counts": class_counts.tolist(),
        "features": feature_params,
        "feature_names": features,
    }


class _NaiveBayesBase(FederatedAlgorithm):
    needs_y = "required"
    needs_x = "required"
    y_types = ("nominal",)
    x_types = ("numeric", "nominal")

    def _prepare(self):
        from repro.algorithms.preprocessing import resolve_observed_levels

        target = self.y[0]
        variables = [target] + list(self.x)
        metadata = resolve_observed_levels(self, variables)
        classes = list(metadata.get(target, {}).get("enumerations", []))
        if len(classes) < 2:
            raise AlgorithmError(f"target {target!r} has fewer than 2 observed classes")
        return target, metadata, classes

    def _fit(self, target, metadata, classes, view, alpha):
        handle = self.local_run(
            func=naive_bayes_fit_local,
            keyword_args={
                "data": view,
                "target": target,
                "classes": classes,
                "features": list(self.x),
                "metadata": metadata,
            },
            share_to_global=[True],
        )
        aggregates = self.ctx.get_transfer_data(handle)
        return build_model(classes, list(self.x), metadata, aggregates, alpha)


@register_algorithm
class NaiveBayesTraining(_NaiveBayesBase):
    """Train a Naive Bayes classifier (no held-out evaluation)."""

    name = "naive_bayes"
    label = "Naive Bayes Training"
    parameters = (
        ParameterSpec("alpha", "real", label="Additive smoothing", default=1.0,
                      min_value=0.0),
    )

    def run(self) -> dict[str, Any]:
        target, metadata, classes = self._prepare()
        view = self.data_view([target] + list(self.x))
        model = self._fit(target, metadata, classes, view, self.params["alpha"])
        n_observations = int(sum(model["class_counts"]))
        logger.info(
            "naive_bayes_trained",
            target=target,
            classes=len(classes),
            features=list(self.x),
            n=n_observations,
        )
        return {"model": model, "target": target, "n_observations": n_observations}


@register_algorithm
class NaiveBayesCV(_NaiveBayesBase):
    """Naive Bayes with k-fold cross-validated classification metrics."""

    name = "naive_bayes_cv"
    label = "Naive Bayes with Cross Validation"
    parameters = (
        ParameterSpec("alpha", "real", label="Additive smoothing", default=1.0,
                      min_value=0.0),
        ParameterSpec("n_splits", "int", label="Number of folds", default=5,
                      min_value=2, max_value=20),
        ParameterSpec("seed", "int", label="Fold-split seed", default=0),
    )

    def run(self) -> dict[str, Any]:
        target, metadata, classes = self._prepare()
        view = self.data_view([target] + list(self.x))
        n_folds = self.params["n_splits"]
        seed = self.params["seed"]
        alpha = self.params["alpha"]

        fold_handle = self.local_run(
            func=naive_bayes_cv_fit_local,
            keyword_args={
                "data": view,
                "target": target,
                "classes": classes,
                "features": list(self.x),
                "metadata": metadata,
                "n_folds": n_folds,
                "seed": seed,
            },
            share_to_global=[True],
        )
        aggregates = self.ctx.get_transfer_data(fold_handle)
        models = []
        for held_out in range(n_folds):
            train_aggregate: dict[str, Any] = {}
            for class_index in range(len(classes)):
                train_aggregate[f"n_{class_index}"] = sum(
                    float(aggregates[f"fold{fold}_n_{class_index}"])
                    for fold in range(n_folds)
                    if fold != held_out
                )
                for feature_index, feature in enumerate(self.x):
                    key = f"f{feature_index}_c{class_index}"
                    info = metadata.get(feature, {})
                    if info.get("is_categorical"):
                        stacked = [
                            np.asarray(aggregates[f"fold{fold}_{key}_counts"], dtype=np.float64)
                            for fold in range(n_folds)
                            if fold != held_out
                        ]
                        train_aggregate[f"{key}_counts"] = np.sum(stacked, axis=0).tolist()
                    else:
                        train_aggregate[f"{key}_sum"] = sum(
                            float(aggregates[f"fold{fold}_{key}_sum"])
                            for fold in range(n_folds)
                            if fold != held_out
                        )
                        train_aggregate[f"{key}_sumsq"] = sum(
                            float(aggregates[f"fold{fold}_{key}_sumsq"])
                            for fold in range(n_folds)
                            if fold != held_out
                        )
            models.append(build_model(classes, list(self.x), metadata, train_aggregate, alpha))

        eval_handle = self.local_run(
            func=naive_bayes_eval_local,
            keyword_args={
                "data": view,
                "target": target,
                "features": list(self.x),
                "metadata": metadata,
                "model": {"classes": classes, "models": models},
                "n_folds": n_folds,
                "seed": seed,
            },
            share_to_global=[True],
        )
        confusions = self.ctx.get_transfer_data(eval_handle)
        fold_metrics = []
        total_confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
        for held_out in range(n_folds):
            confusion = np.asarray(confusions[f"confusion_{held_out}"], dtype=np.int64)
            total_confusion += confusion
            correct = int(np.trace(confusion))
            total = int(confusion.sum())
            fold_metrics.append(
                {
                    "fold": held_out,
                    "n_test": total,
                    "accuracy": correct / total if total else 0.0,
                }
            )
        return {
            "classes": classes,
            "target": target,
            "n_splits": n_folds,
            "folds": fold_metrics,
            "mean_accuracy": float(np.mean([m["accuracy"] for m in fold_metrics])),
            "confusion_matrix": total_confusion.tolist(),
        }


@udf(
    data=relation(),
    target=literal(),
    classes=literal(),
    features=literal(),
    metadata=literal(),
    n_folds=literal(),
    seed=literal(),
    return_type=[secure_transfer()],
)
def naive_bayes_cv_fit_local(data, target, classes, features, metadata, n_folds, seed):
    """Per-fold, per-class sufficient statistics in one pass."""
    labels = data.codes(target, classes)
    folds = _h.fold_assignments(len(labels), n_folds, seed)
    payload = {}
    for fold in range(n_folds):
        fold_mask = folds == fold
        masks = [fold_mask & (labels == index) for index in range(len(classes))]
        stats = _h.class_feature_sums(data, features, metadata, masks)
        payload.update({f"fold{fold}_{key}": entry for key, entry in stats.items()})
    return payload
