"""Tests for the paired-link workload generator."""

import numpy as np
import pytest

from repro.core.designs.base import AllocationPlan
from repro.core.designs.paired_link import PairedLinkDesign
from repro.core.units import SESSION_METRICS
from repro.workload.netflix import DEFAULT_LINK_EFFECTS, PairedLinkWorkload, WorkloadConfig


@pytest.fixture(scope="module")
def small_config():
    return WorkloadConfig(sessions_at_peak=80, n_accounts=500, seed=3)


@pytest.fixture(scope="module")
def workload(small_config):
    return PairedLinkWorkload(small_config)


@pytest.fixture(scope="module")
def experiment_table(workload):
    plan = PairedLinkDesign().allocation_plan((1, 2), (0, 1))
    return workload.generate(plan, (0, 1))


class TestWorkloadConfig:
    def test_defaults_are_valid(self):
        config = WorkloadConfig()
        assert config.capacity_gbps == 100.0
        assert config.concurrency_factor > 0

    def test_concurrency_factor_hits_target_utilization(self):
        config = WorkloadConfig()
        peak_sessions = config.sessions_at_peak * config.demand.peak_relative_demand()
        offered = config.concurrency_factor * peak_sessions * config.uncapped_nominal_mbps
        assert offered / (config.capacity_gbps * 1000) == pytest.approx(
            config.peak_utilization_uncapped
        )

    def test_invalid_configs_raise(self):
        with pytest.raises(ValueError):
            WorkloadConfig(sessions_at_peak=0)
        with pytest.raises(ValueError):
            WorkloadConfig(capped_nominal_mbps=10.0, uncapped_nominal_mbps=5.0)
        with pytest.raises(ValueError):
            WorkloadConfig(links=())
        with pytest.raises(ValueError):
            WorkloadConfig(n_accounts=0)

    def test_default_link_effects_match_paper_baseline(self):
        assert DEFAULT_LINK_EFFECTS[1].rebuffer_multiplier == pytest.approx(1.20)
        assert DEFAULT_LINK_EFFECTS[1].bytes_multiplier == pytest.approx(1.05)


class TestOfferedLoad:
    def test_capped_sessions_offer_less_load(self, workload):
        all_uncapped = workload.offered_load_gbps(1000, 0)
        all_capped = workload.offered_load_gbps(0, 1000)
        assert all_capped < all_uncapped
        assert all_capped / all_uncapped == pytest.approx(
            workload.config.capped_nominal_mbps / workload.config.uncapped_nominal_mbps
        )

    def test_peak_hour_is_congested_when_uncapped(self, workload):
        config = workload.config
        peak_sessions = int(config.sessions_at_peak * config.demand.peak_relative_demand())
        state = workload.link_hour_state(peak_sessions, 0)
        assert state.congested

    def test_peak_hour_less_congested_when_mostly_capped(self, workload):
        config = workload.config
        peak_sessions = int(config.sessions_at_peak * config.demand.peak_relative_demand())
        n_capped = int(0.95 * peak_sessions)
        capped_state = workload.link_hour_state(peak_sessions - n_capped, n_capped)
        uncapped_state = workload.link_hour_state(peak_sessions, 0)
        assert capped_state.utilization < uncapped_state.utilization
        assert capped_state.throughput_factor > uncapped_state.throughput_factor


class TestGeneration:
    def test_table_has_expected_columns(self, experiment_table):
        for column in ("session_id", "account_id", "day", "hour", "link", "treated"):
            assert column in experiment_table
        for metric in SESSION_METRICS:
            assert metric in experiment_table

    def test_session_ids_unique(self, experiment_table):
        ids = experiment_table["session_id"]
        assert len(np.unique(ids)) == len(ids)

    def test_both_links_and_days_present(self, experiment_table):
        assert set(experiment_table["link"].astype(int)) == {1, 2}
        assert set(experiment_table["day"].astype(int)) == {0, 1}

    def test_allocation_respected_per_link(self, experiment_table):
        link1 = experiment_table.where(link=1)
        link2 = experiment_table.where(link=2)
        assert link1["treated"].mean() == pytest.approx(0.95, abs=0.03)
        assert link2["treated"].mean() == pytest.approx(0.05, abs=0.03)

    def test_generation_is_reproducible(self, small_config):
        plan = AllocationPlan({}, default=0.5)
        a = PairedLinkWorkload(small_config).generate(plan, (0,))
        b = PairedLinkWorkload(small_config).generate(plan, (0,))
        assert len(a) == len(b)
        assert np.allclose(a["throughput_mbps"], b["throughput_mbps"])

    def test_different_seed_offsets_differ(self, workload):
        plan = AllocationPlan({}, default=0.5)
        a = workload.generate(plan, (0,), seed_offset=1)
        b = workload.generate(plan, (0,), seed_offset=2)
        assert not np.allclose(
            a["throughput_mbps"][: min(len(a), len(b))],
            b["throughput_mbps"][: min(len(a), len(b))],
        )

    def test_baseline_has_no_treated_sessions(self, workload):
        baseline = workload.generate_baseline((0,))
        assert baseline["treated"].sum() == 0

    def test_aa_test_labels_but_does_not_treat(self, workload):
        aa = workload.generate_aa_test((0,), allocation=0.5)
        assert 0.4 < aa["treated"].mean() < 0.6
        treated = aa.where(treated=1)
        control = aa.where(treated=0)
        # No cap applied: bitrates should be statistically indistinguishable.
        assert treated.mean("video_bitrate_kbps") == pytest.approx(
            control.mean("video_bitrate_kbps"), rel=0.05
        )

    def test_interference_mechanism_visible_in_raw_data(self, experiment_table):
        """Control sessions on the mostly-capped link outperform control
        sessions on the mostly-uncapped link (positive spillover)."""
        spill_group = experiment_table.where(link=1, treated=0)
        control_group = experiment_table.where(link=2, treated=0)
        assert spill_group.mean("throughput_mbps") > control_group.mean("throughput_mbps")

    def test_naive_within_link_difference_smaller_than_cross_link_difference(
        self, experiment_table
    ):
        """Within the mostly-uncapped link, capped and uncapped sessions see
        nearly the same throughput (they share the same congestion), while
        the across-link (TTE-style) difference is much larger."""
        link2 = experiment_table.where(link=2)
        naive = abs(
            link2.where(treated=1).mean("throughput_mbps")
            - link2.where(treated=0).mean("throughput_mbps")
        )
        cross_link = abs(
            experiment_table.where(link=1, treated=1).mean("throughput_mbps")
            - link2.where(treated=0).mean("throughput_mbps")
        )
        assert naive < 0.25 * link2.where(treated=0).mean("throughput_mbps")
        assert cross_link > 0.0
