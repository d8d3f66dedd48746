"""Federated linear regression (the paper's Figure 2 algorithm).

One local pass computes the additively aggregatable sufficient statistics
(X^T X, X^T y, y^T y, n); the global step solves the normal equations and
derives inference statistics.  A cross-validated variant reuses the same
local pass with per-fold statistics, so k-fold CV needs no extra data
passes.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.special import stdtr, stdtrit

from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError
from repro.observability.log import get_logger
from repro.udfgen import literal, relation, secure_transfer, transfer, udf
from repro.udfgen import udf_helpers as _h

logger = get_logger("algorithms.linear_regression")


@udf(
    data=relation(),
    covariates=literal(),
    response=literal(),
    metadata=literal(),
    return_type=[secure_transfer()],
)
def linreg_fit_local(data, covariates, response, metadata):
    """Local step: sufficient statistics of the normal equations."""
    design, names = _h.build_design_matrix(data, covariates, metadata)
    y = np.asarray(data[response], dtype=np.float64)
    return _h.regression_payload(design, y)


@udf(aggregates=transfer(), return_type=[transfer()])
def linreg_fit_global(aggregates):
    """Global step: solve the normal equations from aggregated statistics."""
    xtx = np.asarray(aggregates["xtx"], dtype=np.float64)
    xty = np.asarray(aggregates["xty"], dtype=np.float64)
    coefficients = np.linalg.solve(xtx, xty)
    return {
        "coefficients": coefficients.tolist(),
        "xtx": xtx.tolist(),
        "xty": xty.tolist(),
        "yty": aggregates["yty"],
        "sum_y": aggregates["sum_y"],
        "n": aggregates["n"],
    }


@udf(
    data=relation(),
    covariates=literal(),
    response=literal(),
    metadata=literal(),
    n_folds=literal(),
    seed=literal(),
    return_type=[secure_transfer()],
)
def linreg_cv_local(data, covariates, response, metadata, n_folds, seed):
    """Local step for CV: per-fold sufficient statistics in one pass."""
    design, names = _h.build_design_matrix(data, covariates, metadata)
    y = np.asarray(data[response], dtype=np.float64)
    folds = _h.fold_assignments(len(y), n_folds, seed)
    payload = {}
    for fold in range(n_folds):
        mask = folds == fold
        stats = _h.regression_payload(design[mask], y[mask])
        payload.update({f"{key}_{fold}": entry for key, entry in stats.items()})
    return payload


def solve_linear_model(
    xtx: np.ndarray, xty: np.ndarray, yty: float, sum_y: float, n: int
) -> dict[str, Any]:
    """OLS estimates and inference from aggregated sufficient statistics."""
    p = xtx.shape[0]
    degrees_of_freedom = n - p
    if degrees_of_freedom <= 0:
        raise AlgorithmError(
            f"not enough observations ({n}) for {p} model parameters"
        )
    try:
        xtx_inverse = np.linalg.inv(xtx)
    except np.linalg.LinAlgError as exc:
        raise AlgorithmError(f"singular design matrix: {exc}") from exc
    coefficients = xtx_inverse @ xty
    sse = float(yty - coefficients @ xty)
    sse = max(sse, 0.0)
    sst = float(yty - (sum_y**2) / n)
    mse = sse / degrees_of_freedom
    standard_errors = np.sqrt(np.clip(np.diag(xtx_inverse) * mse, 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = np.where(standard_errors > 0, coefficients / standard_errors, np.inf)
    p_values = 2.0 * stdtr(degrees_of_freedom, -np.abs(t_values))
    t_critical = stdtrit(degrees_of_freedom, 0.975)
    r_squared = 1.0 - sse / sst if sst > 0 else 0.0
    adjusted = 1.0 - (1.0 - r_squared) * (n - 1) / degrees_of_freedom
    return {
        "coefficients": coefficients.tolist(),
        "std_err": standard_errors.tolist(),
        "t_values": [float(t) for t in t_values],
        "p_values": [float(v) for v in p_values],
        "ci_lower": (coefficients - t_critical * standard_errors).tolist(),
        "ci_upper": (coefficients + t_critical * standard_errors).tolist(),
        "residual_sum_squares": sse,
        "total_sum_squares": sst,
        "mean_squared_error": mse,
        "r_squared": float(r_squared),
        "adjusted_r_squared": float(adjusted),
        "degrees_of_freedom": int(degrees_of_freedom),
        "n_observations": int(n),
    }


@register_algorithm
class LinearRegression(FederatedAlgorithm):
    """OLS regression of one numeric response on covariates."""

    name = "linear_regression"
    label = "Linear Regression"
    needs_y = "required"
    needs_x = "required"
    y_types = ("numeric",)
    x_types = ("numeric", "nominal")

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import design_names, resolve_observed_levels

        response = self.y[0]
        variables = [response] + list(self.x)
        self.metadata = resolve_observed_levels(self, variables)
        data = self.data_view(variables)
        local_transfers = self.local_run(
            func=linreg_fit_local,
            keyword_args={
                "data": data,
                "covariates": list(self.x),
                "response": response,
                "metadata": self.metadata,
            },
            share_to_global=[True],
        )
        global_transfer = self.global_run(
            func=linreg_fit_global,
            keyword_args=dict(aggregates=local_transfers),
            share_to_locals=[False],
        )
        aggregates = self.ctx.get_transfer_data(global_transfer)
        names = design_names(self.x, self.metadata)
        result = solve_linear_model(
            np.asarray(aggregates["xtx"]),
            np.asarray(aggregates["xty"]),
            float(aggregates["yty"]),
            float(aggregates["sum_y"]),
            int(aggregates["n"]),
        )
        result["variable_names"] = names
        result["response"] = response
        logger.info(
            "linreg_fit",
            response=response,
            covariates=list(self.x),
            n=result.get("n_observations"),
            r_squared=result.get("r_squared"),
        )
        return result


@register_algorithm
class LinearRegressionCV(FederatedAlgorithm):
    """k-fold cross-validated linear regression."""

    name = "linear_regression_cv"
    label = "Linear Regression Cross-validation"
    needs_y = "required"
    needs_x = "required"
    y_types = ("numeric",)
    x_types = ("numeric", "nominal")
    parameters = (
        ParameterSpec("n_splits", "int", label="Number of folds", default=5,
                      min_value=2, max_value=20),
        ParameterSpec("seed", "int", label="Fold-split seed", default=0),
    )

    def run(self) -> dict[str, Any]:
        from repro.algorithms.preprocessing import resolve_observed_levels

        response = self.y[0]
        n_folds = self.params["n_splits"]
        self.metadata = resolve_observed_levels(self, [response] + list(self.x))
        data = self.data_view([response] + list(self.x))
        local_transfers = self.local_run(
            func=linreg_cv_local,
            keyword_args={
                "data": data,
                "covariates": list(self.x),
                "response": response,
                "metadata": self.metadata,
                "n_folds": n_folds,
                "seed": self.params["seed"],
            },
            share_to_global=[True],
        )
        aggregates = self.ctx.get_transfer_data(local_transfers)
        fold_stats = []
        for fold in range(n_folds):
            fold_stats.append(
                {
                    "xtx": np.asarray(aggregates[f"xtx_{fold}"], dtype=np.float64),
                    "xty": np.asarray(aggregates[f"xty_{fold}"], dtype=np.float64),
                    "yty": float(aggregates[f"yty_{fold}"]),
                    "sum_y": float(aggregates[f"sum_y_{fold}"]),
                    "n": int(aggregates[f"n_{fold}"]),
                }
            )
        fold_metrics = []
        for held_out in range(n_folds):
            train = [fold_stats[i] for i in range(n_folds) if i != held_out]
            test = fold_stats[held_out]
            xtx = sum(s["xtx"] for s in train)
            xty = sum(s["xty"] for s in train)
            coefficients = np.linalg.solve(xtx, xty)
            n_test = test["n"]
            if n_test == 0:
                continue
            sse = float(
                test["yty"] - 2.0 * coefficients @ test["xty"]
                + coefficients @ test["xtx"] @ coefficients
            )
            sst = float(test["yty"] - (test["sum_y"] ** 2) / n_test)
            fold_metrics.append(
                {
                    "fold": held_out,
                    "n_test": n_test,
                    "mse": sse / n_test,
                    "rmse": float(np.sqrt(max(sse, 0.0) / n_test)),
                    "r_squared": 1.0 - sse / sst if sst > 0 else 0.0,
                }
            )
        mses = [m["mse"] for m in fold_metrics]
        return {
            "folds": fold_metrics,
            "mean_mse": float(np.mean(mses)),
            "std_mse": float(np.std(mses, ddof=1)) if len(mses) > 1 else 0.0,
            "mean_r_squared": float(np.mean([m["r_squared"] for m in fold_metrics])),
            "n_splits": n_folds,
            "response": response,
        }
