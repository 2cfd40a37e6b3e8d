"""Tests for repro.core.assignment."""

import numpy as np
import pytest

from repro.core.assignment import interval_assignment


class TestIntervalAssignment:
    def test_length(self):
        assert interval_assignment(5, seed=0).shape == (5,)

    def test_force_both_arms(self):
        for seed in range(20):
            assignment = interval_assignment(3, seed=seed)
            assert assignment.any()
            assert not assignment.all()

    def test_force_both_arms_needs_two_intervals(self):
        with pytest.raises(ValueError):
            interval_assignment(1)

    @pytest.mark.parametrize("probability", [0.0, 1.0])
    def test_force_both_arms_rejects_a_certain_arm(self, probability):
        # Every draw would put all intervals in one arm, so redrawing
        # until both arms appear would never return.
        with pytest.raises(ValueError):
            interval_assignment(5, treatment_probability=probability, seed=0)

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError):
            interval_assignment(5, treatment_probability=2.0)

    def test_zero_intervals_raise(self):
        with pytest.raises(ValueError):
            interval_assignment(0)

    @pytest.mark.parametrize("probability", [-0.5, 1.5])
    def test_probability_outside_unit_interval_raises(self, probability):
        with pytest.raises(ValueError):
            interval_assignment(5, treatment_probability=probability, seed=0)

    def test_returns_boolean_mask(self):
        assert interval_assignment(7, seed=1).dtype == np.bool_

    def test_reproducible_with_seed(self):
        a = interval_assignment(40, seed=42)
        b = interval_assignment(40, seed=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        draws = {tuple(interval_assignment(40, seed=seed)) for seed in range(5)}
        assert len(draws) == 5

    def test_probability_sets_share_of_treatment_intervals(self):
        assignment = interval_assignment(20_000, treatment_probability=0.25, seed=3)
        assert assignment.mean() == pytest.approx(0.25, abs=0.02)

    def test_two_intervals_split_one_each(self):
        # With two intervals, the only draws that hold both arms are
        # (True, False) and (False, True).
        for seed in range(10):
            assert interval_assignment(2, seed=seed).sum() == 1
