"""Tests for repro.core.estimators."""

import numpy as np
import pytest

from repro.core.estimators import (
    EstimateWithCI,
    cluster_robust_variance,
    difference_in_means,
    relative_effect,
)


class TestEstimateWithCI:
    def test_significant_when_interval_excludes_zero(self):
        assert EstimateWithCI(1.0, 0.1, 0.8, 1.2).significant
        assert EstimateWithCI(-1.0, 0.1, -1.2, -0.8).significant

    def test_not_significant_when_interval_spans_zero(self):
        assert not EstimateWithCI(0.1, 0.2, -0.3, 0.5).significant

    def test_width(self):
        assert EstimateWithCI(0.0, 1.0, -1.0, 3.0).width == pytest.approx(4.0)

    def test_covers(self):
        e = EstimateWithCI(0.0, 1.0, -1.0, 1.0)
        assert e.covers(0.5)
        assert not e.covers(2.0)

    def test_scaled_positive(self):
        e = EstimateWithCI(2.0, 0.5, 1.0, 3.0).scaled(2.0)
        assert e.estimate == pytest.approx(4.0)
        assert (e.ci_low, e.ci_high) == (pytest.approx(2.0), pytest.approx(6.0))

    def test_scaled_negative_flips_interval(self):
        e = EstimateWithCI(2.0, 0.5, 1.0, 3.0).scaled(-1.0)
        assert e.ci_low == pytest.approx(-3.0)
        assert e.ci_high == pytest.approx(-1.0)
        assert e.ci_low <= e.ci_high


class TestDifferenceInMeans:
    def test_point_estimate(self):
        result = difference_in_means(np.array([2.0, 4.0]), np.array([1.0, 3.0]))
        assert result.effect.estimate == pytest.approx(1.0)
        assert result.treatment_mean == pytest.approx(3.0)
        assert result.control_mean == pytest.approx(2.0)

    def test_empty_group_raises(self):
        with pytest.raises(ValueError):
            difference_in_means(np.array([]), np.array([1.0]))

    def test_detects_large_difference(self):
        rng = np.random.default_rng(0)
        t = rng.normal(10.0, 1.0, 500)
        c = rng.normal(5.0, 1.0, 500)
        result = difference_in_means(t, c)
        assert result.effect.significant
        assert result.effect.covers(5.0)

    def test_null_effect_usually_not_significant(self):
        rng = np.random.default_rng(1)
        t = rng.normal(0.0, 1.0, 500)
        c = rng.normal(0.0, 1.0, 500)
        result = difference_in_means(t, c)
        assert result.effect.covers(0.0)

    def test_relative_effect_property(self):
        result = difference_in_means(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        assert result.relative_effect == pytest.approx(1.0)

    def test_relative_effect_zero_control_raises(self):
        result = difference_in_means(np.array([2.0, 2.0]), np.array([0.0, 0.0]))
        with pytest.raises(ZeroDivisionError):
            _ = result.relative_effect

    def test_clustered_wider_than_iid_with_correlated_clusters(self):
        rng = np.random.default_rng(2)
        n_clusters, per_cluster = 20, 50
        cluster_effect = rng.normal(0.0, 2.0, n_clusters)
        clusters = np.repeat(np.arange(n_clusters), per_cluster)
        outcomes = cluster_effect[clusters] + rng.normal(0.0, 0.5, n_clusters * per_cluster)
        iid = difference_in_means(outcomes, outcomes + 1.0)
        clustered = difference_in_means(
            outcomes,
            outcomes + 1.0,
            treatment_clusters=clusters,
            control_clusters=clusters,
        )
        assert clustered.effect.width > iid.effect.width

    def test_confidence_level_changes_width(self):
        rng = np.random.default_rng(3)
        t, c = rng.normal(1, 1, 100), rng.normal(0, 1, 100)
        wide = difference_in_means(t, c, confidence=0.99)
        narrow = difference_in_means(t, c, confidence=0.8)
        assert wide.effect.width > narrow.effect.width


class TestClusterRobustVariance:
    def test_matches_shape(self):
        outcomes = np.array([1.0, 2.0, 3.0, 4.0])
        clusters = np.array([0, 0, 1, 1])
        var, n = cluster_robust_variance(outcomes, clusters)
        assert n == 2
        assert var >= 0.0

    def test_single_cluster_returns_zero(self):
        var, n = cluster_robust_variance(np.array([1.0, 2.0]), np.array([0, 0]))
        assert n == 1
        assert var == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            cluster_robust_variance(np.array([1.0]), np.array([0, 1]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            cluster_robust_variance(np.array([]), np.array([]))


class TestRelativeEffect:
    def test_scaling(self):
        absolute = EstimateWithCI(2.0, 0.5, 1.0, 3.0)
        relative = relative_effect(absolute, baseline=4.0)
        assert relative.estimate == pytest.approx(0.5)
        assert relative.ci_high == pytest.approx(0.75)

    def test_zero_baseline_raises(self):
        with pytest.raises(ZeroDivisionError):
            relative_effect(EstimateWithCI(1.0, 0.1, 0.9, 1.1), baseline=0.0)
