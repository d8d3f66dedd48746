"""ANOVA against scipy references."""

import numpy as np
import pytest
import scipy.stats


class TestOneWay:
    def test_matches_scipy_f_oneway(self, run, pooled):
        result = run("anova_oneway", y=["lefthippocampus"], x=["alzheimerbroadcategory"])
        rows = pooled("lefthippocampus", "alzheimerbroadcategory")
        groups = {}
        for value, level in rows:
            groups.setdefault(level, []).append(value)
        reference = scipy.stats.f_oneway(*groups.values())
        assert result["f_statistic"] == pytest.approx(reference.statistic, abs=1e-8)
        assert result["p_value"] == pytest.approx(reference.pvalue, abs=1e-12)

    def test_group_statistics(self, run, pooled):
        result = run("anova_oneway", y=["lefthippocampus"], x=["alzheimerbroadcategory"])
        rows = pooled("lefthippocampus", "alzheimerbroadcategory")
        cn = np.array([v for v, g in rows if g == "CN"])
        index = result["groups"].index("CN")
        assert result["group_counts"][index] == len(cn)
        assert result["group_means"][index] == pytest.approx(cn.mean())
        assert result["group_stds"][index] == pytest.approx(cn.std(ddof=1))

    def test_sum_of_squares_decomposition(self, run, pooled):
        result = run("anova_oneway", y=["lefthippocampus"], x=["alzheimerbroadcategory"])
        rows = pooled("lefthippocampus", "alzheimerbroadcategory")
        values = np.array([v for v, _ in rows])
        total_ss = ((values - values.mean()) ** 2).sum()
        assert result["ss_between"] + result["ss_within"] == pytest.approx(total_ss, rel=1e-9)
        assert 0 <= result["eta_squared"] <= 1

    def test_degrees_of_freedom(self, run, pooled):
        result = run("anova_oneway", y=["lefthippocampus"], x=["alzheimerbroadcategory"])
        n = len(pooled("lefthippocampus", "alzheimerbroadcategory"))
        k = len(result["groups"])
        assert result["df_between"] == k - 1
        assert result["df_within"] == n - k


class TestTwoWay:
    def test_terms_present(self, run):
        result = run(
            "anova_twoway",
            y=["lefthippocampus"],
            x=["alzheimerbroadcategory", "gender"],
        )
        terms = result["terms"]
        assert set(terms) == {
            "alzheimerbroadcategory", "gender",
            "alzheimerbroadcategory:gender", "residual",
        }
        for term, stats in terms.items():
            assert stats["ss"] >= 0
            if term != "residual":
                assert 0 <= stats["p_value"] <= 1

    def test_sequential_ss_matches_regression_reference(self, run, pooled):
        """Type I SS via explicit nested OLS on the pooled data."""
        result = run(
            "anova_twoway",
            y=["lefthippocampus"],
            x=["alzheimerbroadcategory", "gender"],
        )
        rows = pooled("lefthippocampus", "alzheimerbroadcategory", "gender")
        y = np.array([r[0] for r in rows])
        levels_a = result["levels"]["alzheimerbroadcategory"]
        levels_b = result["levels"]["gender"]
        a_dummies = np.column_stack(
            [[1.0 if r[1] == level else 0.0 for r in rows] for level in levels_a[1:]]
        )
        b_dummies = np.column_stack(
            [[1.0 if r[2] == level else 0.0 for r in rows] for level in levels_b[1:]]
        )
        ones = np.ones((len(y), 1))

        def sse(X):
            beta, *_ = np.linalg.lstsq(X, y, rcond=None)
            r = y - X @ beta
            return float(r @ r)

        sse_0 = sse(ones)
        sse_a = sse(np.hstack([ones, a_dummies]))
        sse_ab = sse(np.hstack([ones, a_dummies, b_dummies]))
        assert result["terms"]["alzheimerbroadcategory"]["ss"] == pytest.approx(
            sse_0 - sse_a, rel=1e-6
        )
        assert result["terms"]["gender"]["ss"] == pytest.approx(sse_a - sse_ab, rel=1e-6, abs=1e-6)

    def test_strong_main_effect_weak_interaction(self, run):
        result = run(
            "anova_twoway",
            y=["lefthippocampus"],
            x=["alzheimerbroadcategory", "gender"],
        )
        terms = result["terms"]
        assert terms["alzheimerbroadcategory"]["p_value"] < 1e-10
        # the generator has no diagnosis-gender interaction
        assert terms["alzheimerbroadcategory:gender"]["p_value"] > 0.01

    def test_requires_two_factors(self, federation):
        from repro.core.experiment import ExperimentEngine, ExperimentRequest

        engine = ExperimentEngine(federation, aggregation="plain")
        result = engine.run(
            ExperimentRequest(
                algorithm="anova_twoway",
                data_model="dementia",
                datasets=("edsd",),
                y=("lefthippocampus",),
                x=("gender",),
            )
        )
        assert result.status.value == "error"
        assert "two nominal factors" in result.error


class TestTukeyTable:
    """The pairwise table from fixed aggregates: values pinned at the commit
    that still inverted the studentized-range quantile once per pair."""

    LEVELS = ["AD", "CN", "MCI"]
    COUNTS = np.array([41.0, 57.0, 33.0])
    MEANS = np.array([2.75, 3.5, 3.125])
    PINNED = [
        {'groups': ['AD', 'CN'], 'mean_difference': -0.75, 'q_statistic': 5.74620207655044, 'p_adjusted': 0.0002462331980821464, 'ci_lower': -1.1877034627977499, 'ci_upper': -0.31229653720225026, 'significant': True},
        {'groups': ['AD', 'MCI'], 'mean_difference': -0.375, 'q_statistic': 2.51575079827118, 'p_adjusted': 0.18076759919980712, 'ci_lower': -0.8748771238729494, 'ci_upper': 0.12487712387294941, 'significant': False},
        {'groups': ['CN', 'MCI'], 'mean_difference': 0.375, 'q_statistic': 2.689724035029502, 'p_adjusted': 0.14227612449136595, 'ci_lower': -0.09254472096133848, 'ci_upper': 0.8425447209613385, 'significant': False},
    ]

    def test_one_quantile_inversion_per_table_and_same_values(self, monkeypatch):
        from repro.algorithms.anova import tukey_hsd

        def removed(*args, **kwargs):
            raise AssertionError("tukey_hsd must not call scipy.stats.studentized_range")

        for method in ("ppf", "sf", "cdf"):
            monkeypatch.setattr(scipy.stats.studentized_range, method, removed)
        table = tukey_hsd(self.LEVELS, self.COUNTS, self.MEANS, 0.8125, 128)
        # The digits were pinned under SciPy's adaptive quadrature; the
        # fixed-node kernel agrees to 1e-10 (worst field: p_adjusted).
        for row, pinned in zip(table, self.PINNED, strict=True):
            assert row == pytest.approx(pinned, rel=1e-9)

    def test_single_group_has_no_pairs(self):
        from repro.algorithms.anova import tukey_hsd

        assert tukey_hsd(["AD"], np.array([5.0]), np.array([1.0]), 1.0, 4) == []
