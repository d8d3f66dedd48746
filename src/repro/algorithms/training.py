"""Federated model training (paper §2, *Training*).

"The Master sends to Workers (data holders) the current model parameters.
Each Worker computes the parameter updates of the model on his local
dataset.  Next, we have two options: use differential privacy (DP) or secure
aggregation (SA)."

Every round passes the weights to the local update as a step literal, runs
it and applies the aggregated step on the master; ``mode`` picks the update:

- ``dp`` — each worker clips its gradient and adds Gaussian noise before the
  update leaves the node (local DP: the master sees one noisy update per
  worker);
- ``sa`` — each worker clips and secret-shares its exact gradient, and the
  noise is added once, inside the SMPC protocol, to the sum;
- ``none`` — the ``sa`` update without noise;
- ``newton`` — exact local gradients and Hessians for a distributed Newton
  step (logistic models only).

At equal privacy budget the SA path adds one noise draw where local DP adds
one per worker — the utility gap the E6 benchmark measures.  Each round's
privacy spend is recorded under the experiment's id, so it is part of the
result's audit trail; a run resumed from the journal re-records the rounds
it replays.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.preprocessing import design_names, positive_level
from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import register_algorithm
from repro.core.specs import ParameterSpec
from repro.errors import AlgorithmError, PrivacyError, SpecificationError
from repro.observability.log import get_logger
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.mechanisms import gaussian_sigma
from repro.smpc.cluster import NoiseSpec
from repro.udfgen import literal, relation, secure_transfer, transfer, udf
from repro.udfgen import udf_helpers as _h  # noqa: F401  (UDF bodies use _h)

logger = get_logger("algorithms.training")


@udf(data=relation(), covariates=literal(), metadata=literal(), return_type=[secure_transfer()])
def feature_moments_local(data, covariates, metadata):
    """Design-column moments for global feature standardization."""
    design, names = _h.build_design_matrix(data, covariates, metadata)
    return {
        "n": {"data": int(design.shape[0]), "operation": "sum"},
        "sums": {"data": design.sum(axis=0).tolist(), "operation": "sum"},
        "sumsq": {"data": (design**2).sum(axis=0).tolist(), "operation": "sum"},
    }


@udf(
    data=relation(),
    covariates=literal(),
    response=literal(),
    positive_level=literal(),
    metadata=literal(),
    scaler=literal(),
    model_kind=literal(),
    params=literal(),
    clip_norm=literal(),
    noise_sigma=literal(),
    seed=literal(),
    return_type=[transfer()],
)
def dp_update_local(
    data, covariates, response, positive_level, metadata, scaler, model_kind, params,
    clip_norm, noise_sigma, seed,
):
    """Local-DP path: clipped gradient + Gaussian noise, per worker."""
    design, names = _h.build_design_matrix(data, covariates, metadata)
    design = _h.apply_scaler(design, scaler)
    y = _h.response_vector(data, response, positive_level)
    weights = np.asarray(params["weights"], dtype=np.float64)
    gradient = _h.clipped_gradient(design, y, weights, model_kind, clip_norm)
    rng = np.random.default_rng(seed)
    noisy = gradient + rng.normal(0.0, noise_sigma, gradient.shape)
    return {"gradient": noisy.tolist(), "n": int(len(y))}


@udf(
    data=relation(),
    covariates=literal(),
    response=literal(),
    positive_level=literal(),
    metadata=literal(),
    scaler=literal(),
    model_kind=literal(),
    params=literal(),
    clip_norm=literal(),
    return_type=[secure_transfer()],
)
def sa_update_local(data, covariates, response, positive_level, metadata, scaler, model_kind, params, clip_norm):
    """Secure-aggregation path: the clipped exact gradient, secret-shared."""
    design, names = _h.build_design_matrix(data, covariates, metadata)
    design = _h.apply_scaler(design, scaler)
    y = _h.response_vector(data, response, positive_level)
    weights = np.asarray(params["weights"], dtype=np.float64)
    gradient = _h.clipped_gradient(design, y, weights, model_kind, clip_norm)
    return {"gradient": {"data": gradient.tolist(), "operation": "sum"}}


@udf(
    data=relation(),
    covariates=literal(),
    response=literal(),
    positive_level=literal(),
    metadata=literal(),
    scaler=literal(),
    params=literal(),
    return_type=[secure_transfer()],
)
def newton_update_local(data, covariates, response, positive_level, metadata, scaler, params):
    """Second-order path: exact local gradient and Hessian, secret-shared.

    The paper notes "excellent results for model training with other methods
    too"; the distributed Newton update is the natural one when the model is
    logistic — each round aggregates the full curvature, so convergence takes
    a handful of rounds instead of dozens of SGD steps.
    """
    design, names = _h.build_design_matrix(data, covariates, metadata)
    design = _h.apply_scaler(design, scaler)
    y = _h.response_vector(data, response, positive_level)
    weights = np.asarray(params["weights"], dtype=np.float64)
    stats = _h.logistic_gradient_hessian(design, y, weights)
    return {
        "gradient": {"data": stats["gradient"].tolist(), "operation": "sum"},
        "hessian": {"data": stats["hessian"].tolist(), "operation": "sum"},
    }


@udf(
    data=relation(),
    covariates=literal(),
    response=literal(),
    positive_level=literal(),
    metadata=literal(),
    scaler=literal(),
    model_kind=literal(),
    params=literal(),
    return_type=[secure_transfer()],
)
def evaluate_local(data, covariates, response, positive_level, metadata, scaler, model_kind, params):
    """Diagnostic evaluation: loss and correct-prediction sums."""
    design, names = _h.build_design_matrix(data, covariates, metadata)
    design = _h.apply_scaler(design, scaler)
    y = _h.response_vector(data, response, positive_level)
    weights = np.asarray(params["weights"], dtype=np.float64)
    loss_sum, correct = _h.model_loss_sums(design, y, weights, model_kind)
    return {
        "loss_sum": {"data": loss_sum, "operation": "sum"},
        "correct": {"data": correct, "operation": "sum"},
        "n": {"data": int(len(y)), "operation": "sum"},
    }


@register_algorithm
class FederatedTraining(FederatedAlgorithm):
    """A logistic or linear model trained round by round (see module doc)."""

    name = "federated_training"
    label = "Federated Training"
    needs_y = "required"
    needs_x = "required"
    y_types = ("nominal", "numeric")
    x_types = ("numeric", "nominal")
    parameters = (
        ParameterSpec("mode", "text", label="Update path", default="sa",
                      enums=("dp", "sa", "none", "newton")),
        ParameterSpec("model_kind", "text", label="Model", default="logistic",
                      enums=("logistic", "linear")),
        ParameterSpec("rounds", "int", label="Rounds", default=20, min_value=1),
        ParameterSpec("learning_rate", "real", label="Learning rate", default=0.5),
        ParameterSpec("clip_norm", "real", label="Gradient clipping norm", default=1.0),
        ParameterSpec("epsilon", "real", label="Total ε", default=1.0),
        ParameterSpec("delta", "real", label="Total δ", default=1e-5),
        ParameterSpec("seed", "int", label="Local-DP noise seed", default=0),
        ParameterSpec("evaluate_every", "int", label="Evaluate every N rounds",
                      default=1, min_value=1),
        ParameterSpec("standardize", "bool", label="Standardize features", default=True),
    )

    def run(self) -> dict[str, Any]:
        p = self.params
        mode, rounds, private = p["mode"], p["rounds"], p["mode"] in ("dp", "sa")
        if private and p["epsilon"] <= 0:
            raise PrivacyError("epsilon must be positive for private training")
        if mode == "newton" and p["model_kind"] != "logistic":
            raise AlgorithmError("the Newton path is implemented for logistic models")
        if mode == "sa" and self.ctx.aggregation != "smpc":
            raise SpecificationError(
                "mode='sa' adds its noise inside the SMPC protocol; it needs "
                "aggregation='smpc'"
            )
        response, covariates = self.y[0], list(self.x)
        level = positive_level(response, self.metadata, "training")
        names = design_names(covariates, self.metadata)
        epsilon, delta = p["epsilon"] / rounds, p["delta"] / rounds
        accountant = PrivacyAccountant(
            epsilon_budget=p["epsilon"] * (1 + 1e-9) if private else None,
            audit=self.ctx.master.audit,
            scope=self.ctx.job_id,
        )
        sigma = gaussian_sigma(epsilon, delta, p["clip_norm"]) if private else 0.0
        view = self.data_view([response] + covariates)
        scaler = None
        if p["standardize"]:
            moments = self._gather(
                feature_moments_local,
                {"data": view, "covariates": covariates, "metadata": self.metadata},
            )
            n_rows = max(float(moments["n"]), 1.0)
            means = np.asarray(moments["sums"], dtype=np.float64) / n_rows
            variances = np.clip(
                np.asarray(moments["sumsq"], dtype=np.float64) / n_rows - means**2, 0.0, None
            )
            stds = np.sqrt(variances)
            stds[0] = 0.0  # never scale the intercept
            scaler = {"means": means.tolist(), "stds": stds.tolist()}
        common = {
            "data": view, "covariates": covariates, "response": response,
            "positive_level": level, "metadata": self.metadata, "scaler": scaler,
        }
        weights = np.zeros(len(names))
        history: list[dict[str, float]] = []
        for index in range(rounds):
            weights = self._step(weights, common, sigma, p["seed"] + index)
            if private:
                accountant.record(epsilon, delta)
            if (index + 1) % p["evaluate_every"] == 0 or index == rounds - 1:
                metrics = self._gather(evaluate_local, {
                    **common, "model_kind": p["model_kind"],
                    "params": {"weights": weights.tolist()},
                })
                n_total = max(float(metrics["n"]), 1.0)
                entry = {
                    "round": index + 1,
                    "loss": float(metrics["loss_sum"]) / n_total,
                    "accuracy": float(metrics["correct"]) / n_total,
                }
                history.append(entry)
                logger.info("training_round", mode=mode, **entry)
        spent = accountant.spent()
        return {
            "weights": weights.tolist(),
            "design_names": names,
            "history": history,
            "epsilon_spent": spent.epsilon,
            "delta_spent": spent.delta,
            "mode": mode,
            "final_accuracy": history[-1]["accuracy"],
            "final_loss": history[-1]["loss"],
        }

    def _gather(self, func, args: dict[str, Any], noise: NoiseSpec | None = None):
        """Run one local step and read its aggregate on the master."""
        return self.ctx.get_transfer_data(self.local_run(func, args, [True]), noise=noise)

    def _step(self, weights: np.ndarray, common: dict[str, Any], sigma: float, seed: int):
        """One round: local update at ``weights``, aggregate, apply."""
        p = self.params
        params = {"weights": weights.tolist()}
        if p["mode"] == "newton":
            stats = self._gather(newton_update_local, {**common, "params": params})
            gradient = np.asarray(stats["gradient"], dtype=np.float64)
            hessian = np.asarray(stats["hessian"], dtype=np.float64)
            return weights + np.linalg.solve(hessian + 1e-10 * np.eye(len(weights)), gradient)
        update = {
            **common, "model_kind": p["model_kind"], "params": params,
            "clip_norm": p["clip_norm"],
        }
        if p["mode"] == "dp":
            per_worker = self._gather(
                dp_update_local, {**update, "noise_sigma": sigma, "seed": seed}
            )
            gradient = np.mean([np.asarray(t["gradient"]) for t in per_worker], axis=0)
        else:
            noise = NoiseSpec("gaussian", sigma) if p["mode"] == "sa" else None
            total = self._gather(sa_update_local, update, noise)["gradient"]
            gradient = np.asarray(total, dtype=np.float64) / len(self.ctx.workers)
        return weights - p["learning_rate"] * gradient
