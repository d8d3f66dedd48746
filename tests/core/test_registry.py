"""Algorithm registry."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.algorithms  # noqa: F401
from repro.core.algorithm import FederatedAlgorithm
from repro.core.registry import AlgorithmRegistry, algorithm_registry
from repro.errors import AlgorithmError

#: The paper's §2 "Current status" list, mapped to registry names.
PAPER_ALGORITHMS = [
    "kmeans",
    "anova_oneway",
    "anova_twoway",
    "cart",
    "calibration_belt",
    "id3",
    "kaplan_meier",
    "linear_regression",
    "linear_regression_cv",
    "logistic_regression",
    "logistic_regression_cv",
    "naive_bayes",
    "naive_bayes_cv",
    "pearson_correlation",
    "pca",
    "ttest_independent",
    "ttest_onesample",
    "ttest_paired",
]


class TestGlobalRegistry:
    def test_paper_algorithm_list_covered(self):
        for name in PAPER_ALGORITHMS:
            assert name in algorithm_registry, f"paper algorithm {name} missing"

    def test_at_least_15_algorithms(self):
        # Paper: "The MIP currently integrates 15+ algorithms"
        assert len(algorithm_registry.names()) >= 15

    def test_listing_has_labels(self):
        listing = algorithm_registry.listing()
        assert all(entry["label"] for entry in listing)

    def test_get_unknown(self):
        with pytest.raises(AlgorithmError):
            algorithm_registry.get("quantum_regression")


class TestRegistryMechanics:
    def test_register_requires_name(self):
        registry = AlgorithmRegistry()

        class Nameless(FederatedAlgorithm):
            pass

        with pytest.raises(AlgorithmError):
            registry.register(Nameless)

    def test_duplicate_rejected(self):
        registry = AlgorithmRegistry()

        class Algo(FederatedAlgorithm):
            name = "dup"

        registry.register(Algo)
        with pytest.raises(AlgorithmError):
            registry.register(Algo)


def test_importing_repro_loads_neither_scipy_stats_nor_optimize():
    """The algorithms call the ``scipy.special`` functions that
    ``scipy.stats`` itself calls, and ``scipy.optimize`` loads only when a
    Tukey table needs a root: neither package's import cost is paid up front."""
    script = (
        "import sys, repro, repro.algorithms\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
