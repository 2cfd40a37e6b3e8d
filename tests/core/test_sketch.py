"""Tests for the mergeable streaming summaries used at the shard boundary."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.analysis.sketch import QuantileSketch, StreamingStats


def _pareto_sample(n: int, seed: int, alpha: float = 1.5) -> list[float]:
    """Heavy-tailed Pareto(alpha) sample via inverse CDF (deterministic)."""
    rng = random.Random(f"sketch-pareto:{seed}")
    return [(1.0 - rng.random()) ** (-1.0 / alpha) for _ in range(n)]


def _rank_error(sketch: QuantileSketch, sorted_values: list[float], q: float) -> float:
    """|true rank of the estimated quantile - q|, the t-digest accuracy metric."""
    estimate = sketch.quantile(q)
    rank = np.searchsorted(sorted_values, estimate) / len(sorted_values)
    return abs(float(rank) - q)


class TestStreamingStats:
    def test_moments_match_numpy(self):
        values = _pareto_sample(500, seed=1)
        stats = StreamingStats()
        stats.extend(values)
        assert stats.count == 500
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.variance == pytest.approx(np.var(values))
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_merge_is_exact(self):
        values = _pareto_sample(400, seed=2)
        whole = StreamingStats()
        whole.extend(values)
        left, right = StreamingStats(), StreamingStats()
        left.extend(values[:150])
        right.extend(values[150:])
        merged = left.merge(right)
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total, rel=1e-12)
        assert merged.total_sq == pytest.approx(whole.total_sq, rel=1e-12)
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum

    def test_empty_stats(self):
        stats = StreamingStats()
        assert len(stats) == 0
        assert math.isnan(stats.mean)
        assert math.isnan(stats.variance)

    def test_round_trip(self):
        stats = StreamingStats()
        stats.extend([1.0, 2.5, -3.0])
        assert StreamingStats.from_dict(stats.to_dict()) == stats


class TestQuantileSketchBasics:
    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert math.isnan(sketch.quantile(0.5))

    def test_single_value(self):
        sketch = QuantileSketch()
        sketch.add(42.0)
        assert sketch.quantile(0.0) == 42.0
        assert sketch.quantile(0.5) == 42.0
        assert sketch.quantile(1.0) == 42.0

    def test_small_sample_is_near_exact(self):
        # Fewer values than the centroid budget: quantiles interpolate the
        # exact sample.
        values = [float(v) for v in range(1, 21)]
        sketch = QuantileSketch()
        sketch.extend(values)
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 20.0
        assert sketch.quantile(0.5) == pytest.approx(10.5, abs=0.5)

    def test_rejects_nan_and_bad_quantile(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add(math.nan)
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            QuantileSketch(compression=5)

    def test_centroid_count_is_bounded(self):
        # The O(cells) memory contract: centroid count is bounded by the
        # compression factor, never by how many values were added.
        sketch = QuantileSketch(compression=100)
        sketch.extend(_pareto_sample(20_000, seed=3))
        assert len(sketch) <= 100


class TestQuantileSketchMergeAlgebra:
    def test_merge_commutes_exactly(self):
        a, b = QuantileSketch(), QuantileSketch()
        a.extend(_pareto_sample(2_000, seed=4))
        b.extend(_pareto_sample(3_000, seed=5))
        assert a.merge(b) == b.merge(a)

    def test_merge_associative_within_tolerance(self):
        # Regrouping changes which centroids coalesce, so associativity is
        # approximate: quantile estimates agree to well within the sketch's
        # own accuracy bound.
        a, b, c = QuantileSketch(), QuantileSketch(), QuantileSketch()
        a.extend(_pareto_sample(2_000, seed=6))
        b.extend(_pareto_sample(2_000, seed=7))
        c.extend(_pareto_sample(2_000, seed=8))
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.count == right.count
        assert left.mean == pytest.approx(right.mean, rel=1e-9)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert left.quantile(q) == pytest.approx(right.quantile(q), rel=0.02)

    def test_merge_with_empty_is_identity_on_queries(self):
        a = QuantileSketch()
        a.extend(_pareto_sample(1_000, seed=9))
        merged = a.merge(QuantileSketch())
        assert merged.count == a.count
        for q in (0.05, 0.5, 0.95):
            assert merged.quantile(q) == pytest.approx(a.quantile(q), rel=1e-6)


class TestQuantileSketchAccuracy:
    # Documented tolerance: rank error < 0.01 in the body, < 0.005 in the
    # tails, for compression=100 on heavy-tailed samples.  These bounds are
    # what docs/architecture.md quotes for the fleet shard boundary.
    BODY_TOLERANCE = 0.01
    TAIL_TOLERANCE = 0.005

    def test_pareto_accuracy_bounds(self):
        values = _pareto_sample(50_000, seed=10)
        sketch = QuantileSketch(compression=100)
        sketch.extend(values)
        ordered = sorted(values)
        for q in (0.25, 0.5, 0.75):
            assert _rank_error(sketch, ordered, q) < self.BODY_TOLERANCE
        for q in (0.01, 0.05, 0.95, 0.99, 0.999):
            assert _rank_error(sketch, ordered, q) < self.TAIL_TOLERANCE

    def test_sharded_merge_accuracy(self):
        # Build the sketch the way the fleet does: many shard sketches
        # merged pairwise in index order.
        values = _pareto_sample(20_000, seed=11)
        shards = []
        for i in range(100):
            shard = QuantileSketch(compression=100)
            shard.extend(values[i * 200 : (i + 1) * 200])
            shards.append(shard)
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        ordered = sorted(values)
        assert merged.count == len(values)
        for q in (0.25, 0.5, 0.75):
            assert _rank_error(merged, ordered, q) < self.BODY_TOLERANCE
        for q in (0.05, 0.95, 0.99):
            assert _rank_error(merged, ordered, q) < self.TAIL_TOLERANCE

    def test_min_max_are_exact(self):
        values = _pareto_sample(10_000, seed=12)
        sketch = QuantileSketch()
        sketch.extend(values)
        assert sketch.quantile(0.0) == min(values)
        assert sketch.quantile(1.0) == max(values)


class TestQuantileSketchSerialization:
    def test_round_trip_preserves_state_exactly(self):
        sketch = QuantileSketch(compression=64)
        sketch.extend(_pareto_sample(5_000, seed=13))
        restored = QuantileSketch.from_dict(sketch.to_dict())
        assert restored == sketch
        for q in (0.1, 0.5, 0.9, 0.99):
            assert restored.quantile(q) == sketch.quantile(q)

    def test_round_trip_is_json_compatible(self):
        import json

        sketch = QuantileSketch()
        sketch.extend([1.0, 2.0, 3.0])
        payload = json.loads(json.dumps(sketch.to_dict()))
        assert QuantileSketch.from_dict(payload) == sketch

    def test_merge_after_round_trip_matches(self):
        # The shard boundary serializes, ships, then merges: the result must
        # match merging the in-memory sketches.
        a, b = QuantileSketch(), QuantileSketch()
        a.extend(_pareto_sample(1_000, seed=14))
        b.extend(_pareto_sample(1_000, seed=15))
        shipped = QuantileSketch.from_dict(a.to_dict()).merge(
            QuantileSketch.from_dict(b.to_dict())
        )
        assert shipped == a.merge(b)
