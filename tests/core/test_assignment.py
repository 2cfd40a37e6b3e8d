"""Tests for repro.core.assignment."""

import numpy as np
import pytest

from repro.core.assignment import (
    Assignment,
    bernoulli_assignment,
    fixed_fraction_assignment,
    interval_assignment,
)


class TestAssignment:
    def test_counts(self):
        a = Assignment(np.array([True, False, True]), 0.5)
        assert a.n_units == 3
        assert a.n_treated == 2
        assert a.n_control == 1

    def test_realized_allocation(self):
        a = Assignment(np.array([True, False, True, False]), 0.5)
        assert a.realized_allocation == pytest.approx(0.5)

    def test_realized_allocation_empty(self):
        a = Assignment(np.array([], dtype=bool), 0.5)
        assert a.realized_allocation == 0.0

    def test_invalid_allocation_raises(self):
        with pytest.raises(ValueError):
            Assignment(np.array([True]), 1.5)

    def test_indices(self):
        a = Assignment(np.array([True, False, True]), 0.5)
        assert list(a.treatment_indices()) == [0, 2]
        assert list(a.control_indices()) == [1]

    def test_inverted(self):
        a = Assignment(np.array([True, False]), 0.3)
        inv = a.inverted()
        assert list(inv.treated) == [False, True]
        assert inv.allocation == pytest.approx(0.7)


class TestBernoulliAssignment:
    def test_length(self):
        assert bernoulli_assignment(100, 0.5, seed=0).n_units == 100

    def test_extreme_allocations(self):
        assert bernoulli_assignment(50, 0.0, seed=0).n_treated == 0
        assert bernoulli_assignment(50, 1.0, seed=0).n_treated == 50

    def test_reproducible_with_seed(self):
        a = bernoulli_assignment(200, 0.3, seed=42)
        b = bernoulli_assignment(200, 0.3, seed=42)
        assert np.array_equal(a.treated, b.treated)

    def test_different_seeds_differ(self):
        a = bernoulli_assignment(200, 0.5, seed=1)
        b = bernoulli_assignment(200, 0.5, seed=2)
        assert not np.array_equal(a.treated, b.treated)

    def test_allocation_approximately_respected(self):
        a = bernoulli_assignment(20000, 0.25, seed=3)
        assert a.realized_allocation == pytest.approx(0.25, abs=0.02)

    def test_negative_units_raise(self):
        with pytest.raises(ValueError):
            bernoulli_assignment(-1, 0.5)

    def test_invalid_allocation_raises(self):
        with pytest.raises(ValueError):
            bernoulli_assignment(10, 1.2)


class TestFixedFractionAssignment:
    def test_exact_count(self):
        a = fixed_fraction_assignment(10, 0.3, seed=0)
        assert a.n_treated == 3

    def test_rounding(self):
        a = fixed_fraction_assignment(10, 0.95, seed=0)
        assert a.n_treated == 10  # round(9.5) == 10 under banker's? check explicit

    def test_all_and_none(self):
        assert fixed_fraction_assignment(7, 1.0, seed=0).n_treated == 7
        assert fixed_fraction_assignment(7, 0.0, seed=0).n_treated == 0

    def test_reproducible(self):
        a = fixed_fraction_assignment(50, 0.5, seed=9)
        b = fixed_fraction_assignment(50, 0.5, seed=9)
        assert np.array_equal(a.treated, b.treated)

    def test_invalid_allocation_raises(self):
        with pytest.raises(ValueError):
            fixed_fraction_assignment(10, -0.1)


class TestIntervalAssignment:
    def test_length(self):
        assert interval_assignment(5, seed=0).shape == (5,)

    def test_force_both_arms(self):
        for seed in range(20):
            assignment = interval_assignment(3, seed=seed, force_both_arms=True)
            assert assignment.any()
            assert not assignment.all()

    def test_force_both_arms_needs_two_intervals(self):
        with pytest.raises(ValueError):
            interval_assignment(1, force_both_arms=True)

    @pytest.mark.parametrize("probability", [0.0, 1.0])
    def test_force_both_arms_rejects_a_certain_arm(self, probability):
        # Every draw would put all intervals in one arm, so redrawing
        # until both arms appear would never return.
        with pytest.raises(ValueError):
            interval_assignment(5, treatment_probability=probability, seed=0)

    def test_no_force_allows_single_interval(self):
        assignment = interval_assignment(1, force_both_arms=False, seed=0)
        assert assignment.shape == (1,)

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError):
            interval_assignment(5, treatment_probability=2.0)

    def test_zero_intervals_raise(self):
        with pytest.raises(ValueError):
            interval_assignment(0)
