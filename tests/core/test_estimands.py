"""Tests for repro.core.estimands: potential-outcome curves and estimands."""

import pytest

from repro.core.estimands import (
    AllocationSweep,
    PotentialOutcomeCurve,
    sutva_holds,
)


def interference_curve():
    """A curve shaped like the paper's Figure 1b (interference present)."""
    # Treatment gets 2x the control's share at any interior allocation, but
    # both converge to 1.0 at the endpoints (like the connections test).
    mu_t = {0.1: 1.8, 0.5: 1.4, 0.9: 1.05, 1.0: 1.0}
    mu_c = {0.0: 1.0, 0.1: 0.9, 0.5: 0.7, 0.9: 0.55}
    return PotentialOutcomeCurve("throughput", mu_t, mu_c)


def flat_curve():
    """A curve consistent with SUTVA (Figure 1a)."""
    mu_t = {0.1: 2.0, 0.5: 2.0, 1.0: 2.0}
    mu_c = {0.0: 1.0, 0.5: 1.0, 0.9: 1.0}
    return PotentialOutcomeCurve("metric", mu_t, mu_c)


class TestCurveConstruction:
    def test_requires_treatment_means(self):
        with pytest.raises(ValueError):
            PotentialOutcomeCurve("m", {}, {0.0: 1.0})

    def test_requires_control_means(self):
        with pytest.raises(ValueError):
            PotentialOutcomeCurve("m", {1.0: 1.0}, {})

    def test_treatment_at_zero_invalid(self):
        with pytest.raises(ValueError):
            PotentialOutcomeCurve("m", {0.0: 1.0}, {0.0: 1.0})

    def test_control_at_one_invalid(self):
        with pytest.raises(ValueError):
            PotentialOutcomeCurve("m", {1.0: 1.0}, {1.0: 1.0})

    def test_allocations_sorted_union(self):
        curve = interference_curve()
        assert curve.allocations == sorted(set(curve.allocations))
        assert 0.0 in curve.allocations and 1.0 in curve.allocations


class TestCurveAccess:
    def test_exact_lookup(self):
        curve = interference_curve()
        assert curve.mu_treatment(0.5) == pytest.approx(1.4)
        assert curve.mu_control(0.5) == pytest.approx(0.7)

    def test_interpolation(self):
        curve = interference_curve()
        assert 1.4 < curve.mu_treatment(0.3) < 1.8

    def test_out_of_range_raises(self):
        curve = interference_curve()
        with pytest.raises(ValueError):
            curve.mu_treatment(0.01)


class TestEstimands:
    def test_ate(self):
        curve = interference_curve()
        assert curve.ate(0.5) == pytest.approx(0.7)

    def test_tte(self):
        assert interference_curve().tte() == pytest.approx(0.0)

    def test_tte_requires_endpoints(self):
        curve = PotentialOutcomeCurve("m", {0.5: 1.0}, {0.0: 1.0})
        with pytest.raises(ValueError):
            curve.tte()

    def test_spillover(self):
        curve = interference_curve()
        assert curve.spillover(0.9) == pytest.approx(0.55 - 1.0)

    def test_spillover_undefined_at_full_allocation(self):
        with pytest.raises(ValueError):
            interference_curve().spillover(1.0)

    def test_partial_effect(self):
        curve = interference_curve()
        assert curve.partial_effect(0.5) == pytest.approx(0.4)

    def test_ab_test_bias(self):
        curve = interference_curve()
        assert curve.ab_test_bias(0.5) == pytest.approx(0.7)

    def test_ab_test_bias_vanishes_under_sutva(self):
        curve = flat_curve()
        for p in (0.1, 0.5):
            assert curve.ab_test_bias(p) == pytest.approx(0.0)

    def test_partial_effect_at_full_allocation_is_tte(self):
        curve = interference_curve()
        assert curve.partial_effect(1.0) == pytest.approx(curve.tte())

    def test_estimands_need_control_at_zero_allocation(self):
        curve = PotentialOutcomeCurve("m", {0.5: 2.0, 1.0: 2.0}, {0.5: 1.0})
        with pytest.raises(ValueError):
            curve.spillover(0.5)
        with pytest.raises(ValueError):
            curve.partial_effect(0.5)


class TestSutvaCheck:
    def test_flat_curve_satisfies_sutva(self):
        assert sutva_holds(flat_curve())

    def test_interference_curve_violates_sutva(self):
        assert not sutva_holds(interference_curve())

    def test_relative_tolerance(self):
        mu_t = {0.5: 100.0, 1.0: 100.4}
        mu_c = {0.0: 50.0, 0.5: 50.1}
        curve = PotentialOutcomeCurve("m", mu_t, mu_c)
        assert not sutva_holds(curve, tolerance=1e-9)
        assert sutva_holds(curve, tolerance=0.01, relative=True)


class _Run:
    """A lab run reduced to each arm's mean outcome."""

    def __init__(self, treated=None, control=None):
        self.means = {True: treated, False: control}

    def group_mean(self, metric, treated):
        return self.means[treated]


class TestAllocationSweep:
    """A sweep reads every estimand off its runs' group means."""

    def sweep(self):
        return AllocationSweep(
            2,
            {0: _Run(control=1.0), 1: _Run(treated=1.6, control=0.8), 2: _Run(treated=1.0)},
        )

    def test_allocations(self):
        assert self.sweep().allocations == [0.0, 0.5, 1.0]

    def test_curve_reads_group_means(self):
        curve = self.sweep().curve("throughput")
        assert curve.metric == "throughput"
        assert curve.mu_treatment(0.5) == 1.6
        assert curve.mu_control(0.5) == 0.8
        assert curve.mu_control(0.0) == 1.0

    def test_estimands(self):
        sweep = self.sweep()
        assert sweep.tte("throughput") == 0.0
        assert sweep.ab_estimate("throughput", 0.5) == pytest.approx(0.8)
        assert sweep.spillover("throughput", 0.5) == pytest.approx(-0.2)

    def test_ab_estimate_defined_only_at_interior_allocations(self):
        # An A/B test needs both arms: no treated units at p = 0, no
        # control units at p = 1.
        runs = {k: _Run(treated=2.0 - k / 4, control=1.0 - k / 8) for k in range(5)}
        sweep = AllocationSweep(4, runs)
        for k in (1, 2, 3):
            assert sweep.ab_estimate("m", k / 4) == pytest.approx(1.0 - k / 8)
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                sweep.ab_estimate("m", p)

    def test_tte_needs_both_endpoint_runs(self):
        sweep = AllocationSweep(2, {0: _Run(control=1.0), 1: _Run(treated=1.6, control=0.8)})
        with pytest.raises(ValueError):
            sweep.tte("throughput")
