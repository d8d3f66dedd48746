"""Federated logistic regression via Newton-Raphson (IRLS).

Each iteration: the master passes the current coefficients to the local
step as a literal; every worker computes its local gradient, Hessian, and
log-likelihood; the secure sum
yields the global Newton step.  Inference (standard errors, Wald z, CIs)
comes from the inverse Hessian at convergence.  The cross-validated variant
trains one model per held-out fold using per-fold local statistics.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.stats

from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError
from repro.observability.log import get_logger
from repro.udfgen import literal, relation, secure_transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)

logger = get_logger("algorithms.logistic_regression")


@udf(
    data=relation(),
    covariates=literal(),
    response=literal(),
    positive_level=literal(),
    metadata=literal(),
    beta=literal(),
    return_type=[secure_transfer()],
)
def logreg_step_local(data, covariates, response, positive_level, metadata, beta):
    """One Newton iteration's local statistics."""
    design, names = _h.build_design_matrix(data, covariates, metadata)
    raw = data[response]
    if positive_level is None:
        y = np.asarray(raw, dtype=np.float64)
    else:
        y = (raw == positive_level).astype(np.float64)
    coefficients = np.asarray(beta["beta"], dtype=np.float64)
    stats = _h.logistic_gradient_hessian(design, y, coefficients)
    return {
        "gradient": {"data": stats["gradient"].tolist(), "operation": "sum"},
        "hessian": {"data": stats["hessian"].tolist(), "operation": "sum"},
        "log_likelihood": {"data": stats["log_likelihood"], "operation": "sum"},
        "n": {"data": stats["n"], "operation": "sum"},
        "n_positive": {"data": float(y.sum()), "operation": "sum"},
    }


@udf(
    data=relation(),
    covariates=literal(),
    response=literal(),
    positive_level=literal(),
    metadata=literal(),
    beta=literal(),
    threshold=literal(),
    return_type=[secure_transfer()],
)
def logreg_confusion_local(data, covariates, response, positive_level, metadata, beta, threshold):
    """Confusion counts and score histograms at the fitted coefficients."""
    design, names = _h.build_design_matrix(data, covariates, metadata)
    raw = data[response]
    if positive_level is None:
        y = np.asarray(raw, dtype=np.float64)
    else:
        y = (raw == positive_level).astype(np.float64)
    coefficients = np.asarray(beta["beta"], dtype=np.float64)
    scores = _h.sigmoid(design @ coefficients)
    confusion = _h.confusion_counts(y.astype(bool), scores, threshold)
    histograms = _h.score_histograms(y.astype(bool), scores)
    return {
        "tp": {"data": confusion["tp"], "operation": "sum"},
        "fp": {"data": confusion["fp"], "operation": "sum"},
        "fn": {"data": confusion["fn"], "operation": "sum"},
        "tn": {"data": confusion["tn"], "operation": "sum"},
        "hist_pos": {"data": histograms["positives"].tolist(), "operation": "sum"},
        "hist_neg": {"data": histograms["negatives"].tolist(), "operation": "sum"},
    }


def auc_from_histograms(positives: np.ndarray, negatives: np.ndarray) -> float:
    """Trapezoidal AUC from binned score counts (bins ascending in score)."""
    total_positives = positives.sum()
    total_negatives = negatives.sum()
    if total_positives == 0 or total_negatives == 0:
        return float("nan")
    # Sweep thresholds from high to low: start at (0,0) in ROC space.
    tpr = np.concatenate([[0.0], np.cumsum(positives[::-1]) / total_positives])
    fpr = np.concatenate([[0.0], np.cumsum(negatives[::-1]) / total_negatives])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(tpr, fpr))


def classification_metrics(tp: int, fp: int, fn: int, tn: int) -> dict[str, float]:
    """Accuracy, precision, recall and F1 from confusion counts."""
    total = tp + fp + fn + tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "accuracy": (tp + tn) / total if total else 0.0,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


class _NewtonDriver:
    """Shared Newton loop used by the plain and CV algorithms."""

    def __init__(self, algorithm: FederatedAlgorithm, metadata: dict[str, Any]) -> None:
        from repro.algorithms.preprocessing import design_names, positive_level

        self.algorithm = algorithm
        self.metadata = metadata
        self.response = algorithm.y[0]
        self.positive_level = positive_level(
            self.response, metadata, "logistic regression"
        )
        self.design_names = design_names(algorithm.x, metadata)

    def fit(
        self, view, max_iterations: int, tolerance: float
    ) -> dict[str, Any]:
        algorithm = self.algorithm
        p = len(self.design_names)
        beta = np.zeros(p)
        log_likelihood = -np.inf
        hessian = np.eye(p)
        n = 0
        n_positive = 0.0
        iterations = 0
        converged = False
        for iterations in range(1, max_iterations + 1):
            handle = algorithm.local_run(
                func=logreg_step_local,
                keyword_args={
                    "data": view,
                    "covariates": list(algorithm.x),
                    "response": self.response,
                    "positive_level": self.positive_level,
                    "metadata": self.metadata,
                    "beta": {"beta": beta.tolist()},
                },
                share_to_global=[True],
            )
            aggregate = algorithm.ctx.get_transfer_data(handle)
            gradient = np.asarray(aggregate["gradient"], dtype=np.float64)
            hessian = np.asarray(aggregate["hessian"], dtype=np.float64)
            new_log_likelihood = float(aggregate["log_likelihood"])
            n = int(aggregate["n"])
            n_positive = float(aggregate["n_positive"])
            try:
                step = np.linalg.solve(hessian + 1e-10 * np.eye(p), gradient)
            except np.linalg.LinAlgError as exc:
                raise AlgorithmError(f"singular Hessian: {exc}") from exc
            beta = beta + step
            if abs(new_log_likelihood - log_likelihood) < tolerance:
                log_likelihood = new_log_likelihood
                converged = True
                break
            log_likelihood = new_log_likelihood
        return {
            "beta": beta,
            "hessian": hessian,
            "log_likelihood": log_likelihood,
            "n": n,
            "n_positive": n_positive,
            "iterations": iterations,
            "converged": converged,
        }


@register_algorithm
class LogisticRegression(FederatedAlgorithm):
    """Binary logistic regression with Wald inference."""

    name = "logistic_regression"
    label = "Logistic Regression"
    needs_y = "required"
    needs_x = "required"
    y_types = ("nominal", "numeric")
    x_types = ("numeric", "nominal")
    parameters = (
        ParameterSpec("max_iterations", "int", label="Maximum Newton iterations",
                      default=25, min_value=1, max_value=200),
        ParameterSpec("tolerance", "real", label="Log-likelihood tolerance",
                      default=1e-8, min_value=0.0),
        ParameterSpec("threshold", "real", label="Classification threshold",
                      default=0.5, min_value=0.0, max_value=1.0),
    )

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import resolve_observed_levels

        variables = [self.y[0]] + list(self.x)
        metadata = resolve_observed_levels(self, variables)
        driver = _NewtonDriver(self, metadata)
        view = self.data_view(variables)
        fit = driver.fit(view, self.params["max_iterations"], self.params["tolerance"])
        beta = fit["beta"]
        if fit["converged"]:
            logger.info(
                "newton_converged",
                response=driver.response,
                iterations=fit["iterations"],
                log_likelihood=fit["log_likelihood"],
            )
        else:
            logger.warning(
                "newton_not_converged",
                response=driver.response,
                iterations=fit["iterations"],
                max_iterations=self.params["max_iterations"],
            )
        try:
            covariance = np.linalg.inv(fit["hessian"])
        except np.linalg.LinAlgError as exc:
            raise AlgorithmError(f"singular Hessian at convergence: {exc}") from exc
        standard_errors = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
        with np.errstate(divide="ignore", invalid="ignore"):
            z_values = np.where(standard_errors > 0, beta / standard_errors, np.inf)
        p_values = 2.0 * scipy.stats.norm.sf(np.abs(z_values))
        margin = 1.959963984540054 * standard_errors

        confusion_handle = self.local_run(
            func=logreg_confusion_local,
            keyword_args={
                "data": view,
                "covariates": list(self.x),
                "response": driver.response,
                "positive_level": driver.positive_level,
                "metadata": metadata,
                "beta": {"beta": beta.tolist()},
                "threshold": self.params["threshold"],
            },
            share_to_global=[True],
        )
        confusion = self.ctx.get_transfer_data(confusion_handle)
        tp, fp = int(confusion["tp"]), int(confusion["fp"])
        fn, tn = int(confusion["fn"]), int(confusion["tn"])
        metrics = classification_metrics(tp, fp, fn, tn)
        auc = auc_from_histograms(
            np.asarray(confusion["hist_pos"]), np.asarray(confusion["hist_neg"])
        )
        n = fit["n"]
        p = len(beta)
        null_ll = _null_log_likelihood(n, fit["n_positive"])
        return {
            "variable_names": driver.design_names,
            "response": driver.response,
            "positive_level": driver.positive_level,
            "coefficients": beta.tolist(),
            "std_err": standard_errors.tolist(),
            "z_values": [float(z) for z in z_values],
            "p_values": [float(v) for v in p_values],
            "ci_lower": (beta - margin).tolist(),
            "ci_upper": (beta + margin).tolist(),
            "odds_ratios": np.exp(beta).tolist(),
            "log_likelihood": fit["log_likelihood"],
            "null_log_likelihood": null_ll,
            "mcfadden_r_squared": 1.0 - fit["log_likelihood"] / null_ll if null_ll else 0.0,
            "aic": 2 * p - 2 * fit["log_likelihood"],
            "bic": p * np.log(n) - 2 * fit["log_likelihood"],
            "n_observations": n,
            "iterations": fit["iterations"],
            "converged": fit["converged"],
            "confusion_matrix": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
            "auc": auc,
            **metrics,
        }


def _null_log_likelihood(n: int, n_positive: float) -> float:
    if n == 0 or n_positive in (0, n):
        return 0.0
    rate = n_positive / n
    return float(n_positive * np.log(rate) + (n - n_positive) * np.log(1 - rate))


@udf(
    data=relation(),
    covariates=literal(),
    response=literal(),
    positive_level=literal(),
    metadata=literal(),
    beta_per_fold=literal(),
    n_folds=literal(),
    seed=literal(),
    return_type=[secure_transfer()],
)
def logreg_cv_step_local(
    data, covariates, response, positive_level, metadata, beta_per_fold, n_folds, seed
):
    """Newton statistics for every training split, in one local pass."""
    design, names = _h.build_design_matrix(data, covariates, metadata)
    raw = data[response]
    if positive_level is None:
        y = np.asarray(raw, dtype=np.float64)
    else:
        y = (raw == positive_level).astype(np.float64)
    folds = _h.fold_assignments(len(y), n_folds, seed)
    payload = {}
    betas = np.asarray(beta_per_fold["betas"], dtype=np.float64)
    for held_out in range(n_folds):
        mask = folds != held_out
        stats = _h.logistic_gradient_hessian(design[mask], y[mask], betas[held_out])
        payload[f"gradient_{held_out}"] = {
            "data": stats["gradient"].tolist(), "operation": "sum",
        }
        payload[f"hessian_{held_out}"] = {
            "data": stats["hessian"].tolist(), "operation": "sum",
        }
        payload[f"ll_{held_out}"] = {"data": stats["log_likelihood"], "operation": "sum"}
    return payload


@udf(
    data=relation(),
    covariates=literal(),
    response=literal(),
    positive_level=literal(),
    metadata=literal(),
    beta_per_fold=literal(),
    n_folds=literal(),
    seed=literal(),
    threshold=literal(),
    return_type=[secure_transfer()],
)
def logreg_cv_eval_local(
    data, covariates, response, positive_level, metadata, beta_per_fold, n_folds, seed, threshold
):
    """Held-out confusion counts for every fold's final model."""
    design, names = _h.build_design_matrix(data, covariates, metadata)
    raw = data[response]
    if positive_level is None:
        y = np.asarray(raw, dtype=np.float64)
    else:
        y = (raw == positive_level).astype(np.float64)
    folds = _h.fold_assignments(len(y), n_folds, seed)
    payload = {}
    betas = np.asarray(beta_per_fold["betas"], dtype=np.float64)
    for held_out in range(n_folds):
        mask = folds == held_out
        scores = _h.sigmoid(design[mask] @ betas[held_out])
        confusion = _h.confusion_counts(y[mask].astype(bool), scores, threshold)
        for key, value in confusion.items():
            payload[f"{key}_{held_out}"] = {"data": value, "operation": "sum"}
    return payload


@register_algorithm
class LogisticRegressionCV(FederatedAlgorithm):
    """k-fold cross-validated logistic regression."""

    name = "logistic_regression_cv"
    label = "Logistic Regression Cross-validation"
    needs_y = "required"
    needs_x = "required"
    y_types = ("nominal", "numeric")
    x_types = ("numeric", "nominal")
    parameters = (
        ParameterSpec("n_splits", "int", label="Number of folds", default=5,
                      min_value=2, max_value=20),
        ParameterSpec("max_iterations", "int", label="Maximum Newton iterations",
                      default=15, min_value=1, max_value=100),
        ParameterSpec("threshold", "real", label="Classification threshold",
                      default=0.5, min_value=0.0, max_value=1.0),
        ParameterSpec("seed", "int", label="Fold-split seed", default=0),
    )

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import resolve_observed_levels

        variables = [self.y[0]] + list(self.x)
        metadata = resolve_observed_levels(self, variables)
        driver = _NewtonDriver(self, metadata)
        view = self.data_view(variables)
        n_folds = self.params["n_splits"]
        seed = self.params["seed"]
        p = len(driver.design_names)
        betas = np.zeros((n_folds, p))
        common = {
            "data": view,
            "covariates": list(self.x),
            "response": driver.response,
            "positive_level": driver.positive_level,
            "metadata": metadata,
            "n_folds": n_folds,
            "seed": seed,
        }
        for _ in range(self.params["max_iterations"]):
            handle = self.local_run(
                func=logreg_cv_step_local,
                keyword_args={**common, "beta_per_fold": {"betas": betas.tolist()}},
                share_to_global=[True],
            )
            aggregate = self.ctx.get_transfer_data(handle)
            for fold in range(n_folds):
                gradient = np.asarray(aggregate[f"gradient_{fold}"], dtype=np.float64)
                hessian = np.asarray(aggregate[f"hessian_{fold}"], dtype=np.float64)
                betas[fold] += np.linalg.solve(hessian + 1e-10 * np.eye(p), gradient)
        eval_handle = self.local_run(
            func=logreg_cv_eval_local,
            keyword_args={
                **common,
                "beta_per_fold": {"betas": betas.tolist()},
                "threshold": self.params["threshold"],
            },
            share_to_global=[True],
        )
        confusion = self.ctx.get_transfer_data(eval_handle)
        fold_metrics = []
        for fold in range(n_folds):
            tp = int(confusion[f"tp_{fold}"])
            fp = int(confusion[f"fp_{fold}"])
            fn = int(confusion[f"fn_{fold}"])
            tn = int(confusion[f"tn_{fold}"])
            metrics = classification_metrics(tp, fp, fn, tn)
            fold_metrics.append({"fold": fold, "n_test": tp + fp + fn + tn, **metrics})
        return {
            "variable_names": driver.design_names,
            "response": driver.response,
            "n_splits": n_folds,
            "folds": fold_metrics,
            "mean_accuracy": float(np.mean([m["accuracy"] for m in fold_metrics])),
            "mean_f1": float(np.mean([m["f1"] for m in fold_metrics])),
            "fold_coefficients": betas.tolist(),
        }
