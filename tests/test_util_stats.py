"""Tests for repro.util.stats."""


import pytest

from repro.util import stats


class TestJaccard:
    def test_identical_sets(self):
        assert stats.jaccard_index({1, 2}, {1, 2}) == 1.0

    def test_disjoint_sets(self):
        assert stats.jaccard_index({1}, {2}) == 0.0

    def test_partial_overlap(self):
        assert stats.jaccard_index({1, 2}, {2, 3}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert stats.jaccard_index(set(), set()) == 1.0

    def test_one_empty(self):
        assert stats.jaccard_index({1}, set()) == 0.0


class TestProportion:
    def test_normal(self):
        assert stats.proportion(1, 4) == 0.25

    def test_zero_denominator(self):
        assert stats.proportion(3, 0) == 0.0


class TestChiSquare:
    def test_independent_table_not_significant(self):
        result = stats.chi_square_independence([[50, 50], [50, 50]])
        assert result.p_value > 0.9
        assert not result.significant()

    def test_dependent_table_significant(self):
        result = stats.chi_square_independence([[90, 10], [10, 90]])
        assert result.significant()
        assert result.statistic > 50

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            stats.chi_square_independence([[1, 2, 3], [4, 5, 6]])

    def test_matches_scipy(self):
        # scipy is a test-only reference for the pure-Python statistic.
        scipy_stats = pytest.importorskip("scipy.stats")
        table = [[37, 163], [21, 400]]
        ours = stats.chi_square_independence(table)
        stat, p, dof, _ = scipy_stats.chi2_contingency(table)
        assert ours.statistic == pytest.approx(stat)
        assert ours.p_value == pytest.approx(p)
        assert ours.degrees_of_freedom == dof

    def test_pure_python_fallback_agrees(self):
        # A clearly dependent table is significant under the pure-Python
        # test.
        table = [[30, 70], [60, 40]]
        result = stats.chi_square_independence(table)
        assert result.significant()

    def test_zero_margin_raises(self):
        with pytest.raises(ValueError):
            stats.chi_square_independence([[0, 0], [1, 2]])

    def test_zero_margin_message_is_ours_on_every_path(self):
        # Every zero-margin shape raises the same ValueError; callers
        # match on this message.
        for table in ([[0, 0], [1, 2]], [[1, 2], [0, 0]],
                      [[0, 1], [0, 2]], [[1, 0], [2, 0]],
                      [[0, 0], [0, 0]]):
            with pytest.raises(ValueError, match="zero margin"):
                stats.chi_square_independence(table)


class TestMean:
    def test_empty(self):
        assert stats.mean([]) == 0.0

    def test_values(self):
        assert stats.mean([1, 2, 3]) == 2.0


class TestStrictVariants:
    """The *_or_none variants distinguish "no data" from a measured 0."""

    def test_proportion_or_none_normal(self):
        assert stats.proportion_or_none(1, 4) == 0.25

    def test_proportion_or_none_true_zero(self):
        assert stats.proportion_or_none(0, 4) == 0.0

    def test_proportion_or_none_empty(self):
        assert stats.proportion_or_none(3, 0) is None
        assert stats.proportion_or_none(0, 0) is None

    def test_proportion_or_none_negative_total(self):
        assert stats.proportion_or_none(1, -2) is None

    def test_lenient_and_strict_agree_on_data(self):
        # On non-empty input the lenient and strict ratios agree; only
        # the empty case differs (0.0 vs None).
        assert stats.proportion(2, 8) == stats.proportion_or_none(2, 8)
