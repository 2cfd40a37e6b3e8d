"""Tests for the experiment designs in repro.core.designs."""

import pytest

from repro.core.designs.base import CellSelector, AllocationPlan
from repro.core.designs.event_study import EventStudyDesign
from repro.core.designs.gradual_deployment import GradualDeploymentDesign
from repro.core.designs.paired_link import PairedLinkDesign
from repro.core.designs.switchback import SwitchbackDesign

LINKS = (1, 2)
DAYS = (0, 1, 2, 3, 4)


class TestCellSelector:
    def test_wildcards_match_everything(self):
        selector = CellSelector()
        assert selector.matches(1, 0, True)
        assert selector.matches(2, 4, False)

    def test_link_filter(self):
        selector = CellSelector(links=(1,))
        assert selector.matches(1, 0, True)
        assert not selector.matches(2, 0, True)

    def test_day_filter(self):
        selector = CellSelector(days=(0, 1))
        assert selector.matches(1, 1, False)
        assert not selector.matches(1, 3, False)

    def test_arm_filter(self):
        selector = CellSelector(treated=True)
        assert selector.matches(1, 0, True)
        assert not selector.matches(1, 0, False)


class TestAllocationPlan:
    def test_default_used_for_unknown_cells(self):
        plan = AllocationPlan({(1, 0): 0.9}, default=0.1)
        assert plan.allocation(1, 0) == pytest.approx(0.9)
        assert plan.allocation(2, 3) == pytest.approx(0.1)

    def test_invalid_allocation_raises(self):
        with pytest.raises(ValueError):
            AllocationPlan({(1, 0): 1.5})

    def test_invalid_default_raises(self):
        with pytest.raises(ValueError):
            AllocationPlan({}, default=-0.2)

    def test_links_and_days(self):
        plan = AllocationPlan({(1, 0): 0.5, (2, 3): 0.5})
        assert plan.links == [1, 2]
        assert plan.days == [0, 3]


class TestPairedLinkDesign:
    def test_default_allocations(self):
        design = PairedLinkDesign()
        plan = design.allocation_plan(LINKS, DAYS)
        assert plan.allocation(1, 0) == pytest.approx(0.95)
        assert plan.allocation(2, 0) == pytest.approx(0.05)

    def test_four_comparisons(self):
        estimands = {c.estimand for c in PairedLinkDesign().comparisons(LINKS, DAYS)}
        assert estimands == {"tte", "spillover", "ab_0.95", "ab_0.05"}

    def test_tte_comparison_crosses_links(self):
        specs = {c.estimand: c for c in PairedLinkDesign().comparisons(LINKS, DAYS)}
        tte = specs["tte"]
        assert tte.treatment_selector.links == (1,)
        assert tte.control_selector.links == (2,)
        assert tte.treatment_selector.treated is True
        assert tte.control_selector.treated is False

    def test_spillover_comparison_uses_control_arms(self):
        specs = {c.estimand: c for c in PairedLinkDesign().comparisons(LINKS, DAYS)}
        spill = specs["spillover"]
        assert spill.treatment_selector.treated is False
        assert spill.control_selector.treated is False

    def test_same_links_raise(self):
        with pytest.raises(ValueError):
            PairedLinkDesign(treated_link=1, control_link=1)

    def test_high_must_exceed_low(self):
        with pytest.raises(ValueError):
            PairedLinkDesign(high_allocation=0.05, low_allocation=0.95)

    def test_third_link_gets_zero_allocation(self):
        plan = PairedLinkDesign().allocation_plan((1, 2, 3), DAYS)
        assert plan.allocation(3, 0) == 0.0


class TestSwitchbackDesign:
    def test_explicit_treatment_days(self):
        design = SwitchbackDesign(treatment_days=(0, 2, 4))
        assert design.treatment_days_for(DAYS) == (0, 2, 4)
        assert design.control_days_for(DAYS) == (1, 3)

    def test_explicit_days_must_be_in_experiment(self):
        design = SwitchbackDesign(treatment_days=(9,))
        with pytest.raises(ValueError):
            design.treatment_days_for(DAYS)

    def test_random_assignment_covers_both_arms(self):
        design = SwitchbackDesign(seed=3)
        treatment = design.treatment_days_for(DAYS)
        control = design.control_days_for(DAYS)
        assert treatment and control
        assert set(treatment) | set(control) == set(DAYS)
        assert not set(treatment) & set(control)

    def test_allocation_plan_matches_intervals(self):
        design = SwitchbackDesign(treatment_days=(0, 2, 4))
        plan = design.allocation_plan(LINKS, DAYS)
        assert plan.allocation(1, 0) == pytest.approx(0.95)
        assert plan.allocation(1, 1) == pytest.approx(0.05)

    def test_spillover_comparison_present_when_control_allocation_positive(self):
        design = SwitchbackDesign(treatment_days=(0, 2, 4), control_allocation=0.05)
        estimands = {c.estimand for c in design.comparisons(LINKS, DAYS)}
        assert estimands == {"tte", "spillover"}

    def test_no_spillover_comparison_when_control_allocation_zero(self):
        design = SwitchbackDesign(treatment_days=(0, 2), control_allocation=0.0)
        estimands = {c.estimand for c in design.comparisons(LINKS, DAYS)}
        assert estimands == {"tte"}

    def test_multiday_intervals(self):
        design = SwitchbackDesign(interval_days=2, seed=0)
        days = tuple(range(6))
        treatment = design.treatment_days_for(days)
        # intervals are [0,1], [2,3], [4,5]; each interval assigned as a block
        for interval in ((0, 1), (2, 3), (4, 5)):
            in_treatment = [d in treatment for d in interval]
            assert all(in_treatment) or not any(in_treatment)

    def test_invalid_allocations_raise(self):
        with pytest.raises(ValueError):
            SwitchbackDesign(treatment_allocation=0.05, control_allocation=0.95)


class TestEventStudyDesign:
    def test_pre_and_post_days(self):
        design = EventStudyDesign(switch_day=2)
        assert design.pre_days(DAYS) == (0, 1)
        assert design.post_days(DAYS) == (2, 3, 4)

    def test_allocation_plan(self):
        plan = EventStudyDesign(switch_day=2).allocation_plan(LINKS, DAYS)
        assert plan.allocation(1, 1) == pytest.approx(0.05)
        assert plan.allocation(1, 2) == pytest.approx(0.95)

    def test_comparisons_require_both_periods(self):
        design = EventStudyDesign(switch_day=10)
        with pytest.raises(ValueError):
            design.comparisons(LINKS, DAYS)

    def test_estimands(self):
        estimands = {c.estimand for c in EventStudyDesign(2).comparisons(LINKS, DAYS)}
        assert estimands == {"tte", "spillover"}

    def test_invalid_allocations_raise(self):
        with pytest.raises(ValueError):
            EventStudyDesign(2, post_allocation=0.01, pre_allocation=0.5)


class TestGradualDeploymentDesign:
    def test_default_ramp_is_monotone(self):
        design = GradualDeploymentDesign()
        ramp = design.ramp
        assert list(ramp) == sorted(ramp)

    def test_non_monotone_ramp_raises(self):
        with pytest.raises(ValueError):
            GradualDeploymentDesign(ramp=(0.5, 0.1))

    def test_allocation_follows_ramp(self):
        design = GradualDeploymentDesign(ramp=(0.0, 0.5, 1.0))
        plan = design.allocation_plan(LINKS, (0, 1, 2, 3))
        assert plan.allocation(1, 0) == 0.0
        assert plan.allocation(1, 1) == 0.5
        assert plan.allocation(1, 2) == 1.0
        # Days beyond the ramp stay at the final allocation.
        assert plan.allocation(1, 3) == 1.0

    def test_comparisons_include_tte_when_ramp_reaches_full(self):
        design = GradualDeploymentDesign(ramp=(0.0, 0.5, 1.0))
        estimands = {c.estimand for c in design.comparisons(LINKS, (0, 1, 2))}
        assert "tte" in estimands
        assert "ab_0.5" in estimands
        assert "spillover_0.5" in estimands
        assert "partial_0.5" in estimands

    def test_empty_ramp_raises(self):
        with pytest.raises(ValueError):
            GradualDeploymentDesign(ramp=())

    def test_negative_day_index_raises(self):
        with pytest.raises(ValueError):
            GradualDeploymentDesign().allocation_for_day_index(-1)
