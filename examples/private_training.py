"""Federated training with the paper's two privacy options.

"Next, we have two options: use differential privacy (DP) or secure
aggregation (SA)."  This example trains the same logistic model (predicting
AD conversion from hippocampal volume and pTau) under no privacy, local DP,
and SA + central noise, and prints the accuracy each path achieves across
an epsilon sweep.  Training is an ordinary experiment: each run is one
``federated_training`` request to the MIP service.

Run:  python examples/private_training.py
"""

import numpy as np

from repro import CohortSpec, FederationConfig, MIPService, create_federation, generate_cohort

DATASETS = tuple(f"site{i}" for i in range(4))


def main() -> None:
    federation = create_federation(
        {
            f"hospital_{i}": {
                "dementia": generate_cohort(CohortSpec(f"site{i}", 400, seed=60 + i))
            }
            for i in range(4)
        },
        FederationConfig(smpc_nodes=3, smpc_scheme="shamir", seed=17),
    )
    service = MIPService(federation)

    def train(mode: str, epsilon: float = 1.0, seed: int = 0):
        outcome = service.run_experiment(
            "federated_training",
            "dementia",
            DATASETS,
            y=["converted_ad"],
            x=["lefthippocampus", "p_tau"],
            parameters={
                "mode": mode,
                "rounds": 10,
                "learning_rate": 0.8,
                "clip_norm": 1.0,
                "epsilon": epsilon,
                "delta": 1e-5,
                "seed": seed,
                "evaluate_every": 10,
            },
        )
        assert outcome.status.value == "success", outcome.error
        return outcome

    clean = train("none").result
    print("non-private baseline")
    print(f"  accuracy={clean['final_accuracy']:.3f}  loss={clean['final_loss']:.4f}")
    weights = {n: round(w, 3) for n, w in zip(clean["design_names"], clean["weights"])}
    print(f"  weights : {weights}\n")

    print(f"{'epsilon':>8} {'local-DP acc':>13} {'SA acc':>8}   (mean of 3 seeds)")
    for epsilon in (4.0, 16.0, 64.0):
        dp_accuracy = np.mean(
            [train("dp", epsilon, s).result["final_accuracy"] for s in range(3)]
        )
        sa_accuracy = np.mean(
            [train("sa", epsilon, s).result["final_accuracy"] for s in range(3)]
        )
        print(f"{epsilon:>8.1f} {dp_accuracy:>13.3f} {sa_accuracy:>8.3f}")

    outcome = train("sa", 16.0)
    spends = [e for e in outcome.audit if e["event"] == "privacy_spend"]
    print(f"\nprivacy ledger for the SA run: epsilon={outcome.result['epsilon_spent']:.2f}, "
          f"delta={outcome.result['delta_spent']:.1e} over {len(spends)} audited rounds")
    print("with SA the noise is added once, inside the SMPC protocol, to the")
    print("aggregated update; with local DP each of the 4 workers adds its own —")
    print("the accuracy gap at equal epsilon is the price of not trusting the")
    print("aggregator.")
    service.shutdown()
    federation.shutdown()


if __name__ == "__main__":
    main()
