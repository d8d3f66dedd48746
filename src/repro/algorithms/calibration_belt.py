"""Federated Calibration Belt (GiViTI-style).

Assesses the calibration of an external risk model: regress the observed
binary outcome on a polynomial of the logit of the predicted probability via
federated logistic Newton steps, select the polynomial degree by forward
likelihood-ratio tests, and draw confidence belts around the fitted
calibration curve.  A well-calibrated model keeps the identity line inside
the belt; the calibration test compares the fitted curve's likelihood
against the identity model.

Degree selection and the belt's pointwise intervals follow the GiViTI
construction with a normal-approximation band (the original's inversion of
the LRT region is replaced by the delta method; the belt's shape and the
test's behaviour are preserved).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.stats

from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError
from repro.udfgen import literal, relation, secure_transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)

#: Logit clipping to keep extreme predictions finite.
_EPS = 1e-6


@udf(
    data=relation(),
    outcome=literal(),
    predictor=literal(),
    degree=literal(),
    beta=literal(),
    return_type=[secure_transfer()],
)
def calibration_step_local(data, outcome, predictor, degree, beta):
    """Newton statistics for the degree-m polynomial calibration model."""
    y = np.asarray(data[outcome], dtype=np.float64)
    p_hat = np.clip(np.asarray(data[predictor], dtype=np.float64), 1e-6, 1 - 1e-6)
    g = np.log(p_hat / (1.0 - p_hat))
    design = np.column_stack([g**j for j in range(degree + 1)])
    coefficients = np.asarray(beta["beta"], dtype=np.float64)
    stats = _h.logistic_gradient_hessian(design, y, coefficients)
    # Log-likelihood under the identity calibration (eta = g).
    identity_probability = np.clip(_h.sigmoid(g), 1e-12, 1 - 1e-12)
    identity_ll = float(
        np.sum(y * np.log(identity_probability) + (1 - y) * np.log(1 - identity_probability))
    )
    return {
        "gradient": {"data": stats["gradient"].tolist(), "operation": "sum"},
        "hessian": {"data": stats["hessian"].tolist(), "operation": "sum"},
        "log_likelihood": {"data": stats["log_likelihood"], "operation": "sum"},
        "identity_ll": {"data": identity_ll, "operation": "sum"},
        "n": {"data": stats["n"], "operation": "sum"},
        "g_min": {"data": float(g.min()), "operation": "min"},
        "g_max": {"data": float(g.max()), "operation": "max"},
    }


@register_algorithm
class CalibrationBelt(FederatedAlgorithm):
    """GiViTI-style calibration belt of a predicted probability."""

    name = "calibration_belt"
    label = "Calibration Belt"
    needs_y = "required"
    needs_x = "required"
    y_types = ("numeric",)  # binary 0/1 outcome column
    x_types = ("numeric",)  # predicted probability column
    parameters = (
        ParameterSpec("max_degree", "int", label="Maximum polynomial degree",
                      default=4, min_value=1, max_value=6),
        ParameterSpec("selection_significance", "real",
                      label="Forward-selection significance", default=0.95,
                      min_value=0.5, max_value=0.999),
        ParameterSpec("max_iterations", "int", label="Newton iterations per fit",
                      default=25, min_value=1, max_value=200),
        ParameterSpec("n_grid", "int", label="Belt grid resolution", default=100,
                      min_value=10, max_value=1000),
    )

    def run(self) -> dict[str, Any]:
        outcome = self.y[0]
        predictor = self.x[0]
        view = self.data_view([outcome, predictor])

        fits: dict[int, dict[str, Any]] = {}
        degree = 1
        fits[1] = self._fit_degree(view, outcome, predictor, 1)
        threshold = self.params["selection_significance"]
        while degree < self.params["max_degree"]:
            candidate = self._fit_degree(view, outcome, predictor, degree + 1)
            lrt = 2.0 * (candidate["log_likelihood"] - fits[degree]["log_likelihood"])
            p_value = float(scipy.stats.chi2.sf(max(lrt, 0.0), 1))
            if p_value < (1.0 - threshold):
                degree += 1
                fits[degree] = candidate
            else:
                break
        fit = fits[degree]
        beta = fit["beta"]
        try:
            covariance = np.linalg.inv(fit["hessian"])
        except np.linalg.LinAlgError as exc:
            raise AlgorithmError(f"singular Hessian in calibration fit: {exc}") from exc

        g_grid = np.linspace(fit["g_min"], fit["g_max"], self.params["n_grid"])
        basis = np.column_stack([g_grid**j for j in range(degree + 1)])
        eta = basis @ beta
        standard_errors = np.sqrt(
            np.clip(np.einsum("ij,jk,ik->i", basis, covariance, basis), 0.0, None)
        )
        p_grid = 1.0 / (1.0 + np.exp(-g_grid))

        def band(confidence: float) -> dict[str, list[float]]:
            z = scipy.stats.norm.ppf(0.5 + confidence / 2.0)
            return {
                "lower": (1.0 / (1.0 + np.exp(-(eta - z * standard_errors)))).tolist(),
                "upper": (1.0 / (1.0 + np.exp(-(eta + z * standard_errors)))).tolist(),
            }

        # Calibration test: fitted polynomial vs the identity curve.
        t_statistic = 2.0 * (fit["log_likelihood"] - fit["identity_ll"])
        test_df = degree + 1
        p_value = float(scipy.stats.chi2.sf(max(t_statistic, 0.0), test_df))
        observed = 1.0 / (1.0 + np.exp(-eta))
        return {
            "outcome": outcome,
            "predictor": predictor,
            "degree": degree,
            "coefficients": beta.tolist(),
            "n_observations": fit["n"],
            "probability_grid": p_grid.tolist(),
            "calibration_curve": observed.tolist(),
            "belt_80": band(0.80),
            "belt_95": band(0.95),
            "test_statistic": float(t_statistic),
            "test_df": test_df,
            "test_p_value": p_value,
            "well_calibrated": p_value > 0.05,
        }

    def _fit_degree(self, view, outcome, predictor, degree: int) -> dict[str, Any]:
        p = degree + 1
        beta = np.zeros(p)
        beta[1] = 1.0  # start at the identity calibration
        log_likelihood = -np.inf
        result: dict[str, Any] = {}
        for _ in range(self.params["max_iterations"]):
            handle = self.local_run(
                func=calibration_step_local,
                keyword_args={
                    "data": view,
                    "outcome": outcome,
                    "predictor": predictor,
                    "degree": degree,
                    "beta": {"beta": beta.tolist()},
                },
                share_to_global=[True],
            )
            aggregate = self.ctx.get_transfer_data(handle)
            gradient = np.asarray(aggregate["gradient"], dtype=np.float64)
            hessian = np.asarray(aggregate["hessian"], dtype=np.float64)
            new_ll = float(aggregate["log_likelihood"])
            result = {
                "beta": beta.copy(),
                "hessian": hessian,
                "log_likelihood": new_ll,
                "identity_ll": float(aggregate["identity_ll"]),
                "n": int(aggregate["n"]),
                "g_min": float(aggregate["g_min"]),
                "g_max": float(aggregate["g_max"]),
            }
            step = np.linalg.solve(hessian + 1e-10 * np.eye(p), gradient)
            beta = beta + step
            if abs(new_ll - log_likelihood) < 1e-10:
                break
            log_likelihood = new_ll
        result["beta"] = beta
        return result
