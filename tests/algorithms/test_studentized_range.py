"""The fixed-node studentized-range kernel against its stated bound.

``|cdf - truth| <= 1e-10`` for ``2 <= k <= 100``, integer ``df >= 1`` up to
``1e9`` and ``df = inf``, ``0 <= q <= inf`` — shown three ways: an exact
closed form (``k = 2``), SciPy's adaptive quadrature as the oracle, and
the kernel against itself with every panel's node count doubled.
"""

import warnings

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtr

from repro.algorithms import studentized_range as sr

FINITE_DFS = [1, 2, 5, 30, 128, 5157, 10**6]


class TestTwoGroupsClosedForm:
    """For ``k = 2`` the range is ``|Z_1 - Z_2|`` and ``Q / sqrt 2`` is a
    folded Student t: no quadrature on the reference side."""

    @pytest.mark.parametrize("df", FINITE_DFS)
    def test_sf_is_twice_the_t_tail_down_to_1e_minus_200(self, df):
        deep = np.sqrt(2.0) * scipy.stats.t.isf(0.5 * 10.0 ** -np.arange(1.0, 201.0, 4.0), df)
        q = np.concatenate([np.linspace(0.0, 12.0, 25), deep])
        if df == 1:  # SciPy's t.sf squares its argument and underflows past 1e154
            exact = 2.0 * np.arctan2(1.0, q / np.sqrt(2.0)) / np.pi
        else:
            exact = 2.0 * scipy.stats.t.sf(q / np.sqrt(2.0), df)
        assert 1e-200 < exact.min() < 1e-196, "the grid must reach the deep tail"
        assert sr.sf(q, 2, df) == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_infinite_df_is_the_normal_range(self):
        q = np.linspace(0.0, 42.0, 169)
        exact = 2.0 * ndtr(-q / np.sqrt(2.0))
        assert exact.min() < 1e-190
        assert sr.sf(q, 2, np.inf) == pytest.approx(exact, rel=1e-9, abs=0.0)


class TestAgainstSciPy:
    QS = np.array([0.5, 2.0, 3.3, 5.0, 7.0])

    @pytest.mark.parametrize("k", [2, 3, 6, 20, 100])
    def test_cdf_on_a_grid(self, k):
        for df in (1, 5, 128, 5157):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # SciPy's IntegrationWarning at df = 1
                oracle = scipy.stats.studentized_range.cdf(self.QS, k, df)
            assert sr.cdf(self.QS, k, df) == pytest.approx(oracle, rel=0.0, abs=1e-9), (k, df)

    @pytest.mark.parametrize(("k", "df"), [(3, 128), (4, 30), (10, 5151)])
    def test_critical_value(self, k, df):
        oracle = scipy.stats.studentized_range.ppf(0.95, k, df)
        assert sr.ppf(0.95, k, df) == pytest.approx(oracle, rel=1e-8)


class TestSelfConvergence:
    QS = np.array([0.0, 0.4, 1.0, 2.0, 3.0, 4.0, 5.5, 8.0, 12.0, 45.0])
    DFS = [1, 2, 7, 57, 5157, 10**9, np.inf]

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 10, 17, 30, 55, 100])
    def test_doubling_every_panels_nodes_moves_nothing(self, k, monkeypatch):
        coarse = [sr.sf(self.QS, k, df) for df in self.DFS]
        nodes, weights = np.polynomial.legendre.leggauss(2 * len(sr._NODES))
        monkeypatch.setattr(sr, "_NODES", nodes)
        monkeypatch.setattr(sr, "_WEIGHTS", weights)
        for df, before in zip(self.DFS, coarse, strict=True):
            assert sr.sf(self.QS, k, df) == pytest.approx(before, rel=0.0, abs=1e-11), (k, df)


class TestShape:
    # Each value carries a few ulp of summation noise (and ~1e-13 past
    # df = 1e6, where s - 1 is a difference of nearly equal numbers).
    NOISE = 1e-12

    @pytest.mark.parametrize(("k", "df"), [(2, 1), (3, 5), (3, 5157), (10, 30), (100, 50),
                                           (100, 10**6), (5, np.inf)])
    def test_sf_does_not_increase_with_q(self, k, df):
        values = sr.sf(np.linspace(0.0, 60.0, 81), k, df)
        assert values[0] == pytest.approx(1.0, abs=self.NOISE)
        assert np.diff(values).max() <= self.NOISE
        assert (values >= 0).all()

    @pytest.mark.parametrize("df", [1, 5, 128, 5157, np.inf])
    def test_sf_does_not_decrease_with_k(self, df):
        q = np.linspace(0.0, 60.0, 16)
        by_k = np.array([sr.sf(q, k, df) for k in (2, 3, 4, 6, 10, 17, 30, 55, 100)])
        assert np.diff(by_k, axis=0).min() >= -self.NOISE

    def test_continuous_across_df_100000(self):
        """SciPy switches to its asymptotic branch at df = 100 000 and its
        cdf jumps by 4.5e-6 there; this kernel has no branch to jump at."""
        below, at, above = (float(sr.cdf(3.3, 3, df)) for df in (99_999, 100_000, 100_001))
        assert abs(at - below) < 1e-8
        assert abs(above - at) < 1e-8
        assert below < at < above

    def test_deep_tail_is_not_floored(self):
        """SciPy's sf is 1 - cdf: 4.19e-12 for every q >= 12 at (3, 5157)."""
        tail = sr.sf(np.array([12.0, 15.0, 20.0, 30.0]), 3, 5157)
        assert (np.diff(np.log(tail)) < -10).all()
        assert tail[0] < 1e-15

    def test_infinite_q(self):
        assert sr.sf(np.inf, 3, 10) == 0.0
        assert sr.sf(np.inf, 3, np.inf) == 0.0
        assert sr.cdf(np.array([0.0, np.inf]), 4, 7).tolist() == pytest.approx([0.0, 1.0])


class TestBlocks:
    def test_block_size_moves_at_most_the_last_bit(self, monkeypatch):
        """A 100-group table asks for 4950 p-values; they are evaluated in
        blocks that bound the temporaries, whatever the input's shape."""
        q = np.linspace(0.0, 9.0, 24).reshape(2, 3, 4)
        whole = sr.sf(q, 5, 40)
        monkeypatch.setattr(sr, "_BLOCK_POINTS", 1)
        assert whole.shape == q.shape
        # BLAS sums a one-row block in another order: the last bit may move.
        assert sr.sf(q, 5, 40) == pytest.approx(whole, rel=1e-14, abs=0.0)
        assert sr.sf(np.array([]), 5, 40).shape == (0,)
        assert sr.sf(np.array([]), 5, np.inf).shape == (0,)


class TestQuantile:
    @pytest.mark.parametrize(("k", "df"), [(2, 1), (3, 2), (3, 5158), (10, 30), (100, 7),
                                           (5, np.inf)])
    def test_round_trip(self, k, df):
        for q in (0.3, 3.0, 9.0, 40.0):
            p = float(sr.cdf(q, k, df))
            if not 0.0 < p < 1.0 - 1e-9:
                continue  # past this the cdf is flat in double precision
            slope = (float(sr.cdf(q * (1 + 1e-6), k, df)) - p) / (q * 1e-6)
            assert sr.ppf(p, k, df) == pytest.approx(q, abs=1e-12 + 1e-13 / slope)

    def test_bracket_grows_past_its_start(self):
        # df = 1 has a Cauchy-like tail: the 95 % point of k = 50 is near 100.
        q = sr.ppf(0.95, 50, 1)
        assert q > 4.0
        assert float(sr.cdf(q, 50, 1)) == pytest.approx(0.95, abs=1e-12)


class TestDomain:
    @pytest.mark.parametrize(("q", "k", "df"), [
        (-1.0, 3, 10), (np.nan, 3, 10), (1.0, 1, 10), (1.0, 2.5, 10),
        (1.0, 3, 0.5), (1.0, 3, np.nan), (1.0, 3, 2.5),
    ])
    def test_rejects(self, q, k, df):
        with pytest.raises(ValueError):
            sr.sf(q, k, df)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, np.nan])
    def test_ppf_rejects(self, p):
        with pytest.raises(ValueError):
            sr.ppf(p, 3, 10)

    def test_fractional_df_is_fine_where_the_kernel_is_smooth(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle = scipy.stats.studentized_range.cdf(3.0, 3, 20.5)
        assert float(sr.cdf(3.0, 3, 20.5)) == pytest.approx(oracle, abs=1e-9)
