"""Tests for the emulated switchback / event-study designs (Section 5)."""

import dataclasses

import pytest

from repro.experiments.alternate_designs import (
    emulate_day_split,
    AlternateDesignComparison,
    compare_designs,
    emulate_event_study,
    emulate_switchback,
    run_aa_calibration,
)
from repro.experiments.paired_link import PairedLinkExperiment
from repro.runner.spec import get_task
from repro.workload.netflix import WorkloadConfig


@pytest.fixture(scope="module")
def outcome():
    config = WorkloadConfig(sessions_at_peak=220, n_accounts=3000, seed=17)
    return PairedLinkExperiment(config=config).run()


@pytest.fixture(scope="module")
def comparison(outcome):
    return compare_designs(
        outcome.experiment_table,
        (0, 1, 2, 3, 4),
        outcome.estimates["tte"],
        baselines=outcome.baselines,
    )


class TestEmulationMechanics:
    def test_day_split_requires_non_empty_arms(self, outcome):
        with pytest.raises(ValueError):
            emulate_day_split(outcome.experiment_table, [], [0])

    def test_day_split_rejects_overlap(self, outcome):
        with pytest.raises(ValueError):
            emulate_day_split(outcome.experiment_table, [0, 1], [1, 2])

    def test_day_split_rejects_empty_selection(self, outcome):
        with pytest.raises(ValueError):
            emulate_day_split(outcome.experiment_table, [40], [41])

    def test_switchback_uses_alternating_days_by_default(self, outcome):
        estimates = emulate_switchback(
            outcome.experiment_table,
            (0, 1, 2, 3, 4),
            metrics=("throughput_mbps",),
            baselines=outcome.baselines,
        )
        assert "throughput_mbps" in estimates

    def test_event_study_uses_midpoint_switch_by_default(self, outcome):
        estimates = emulate_event_study(
            outcome.experiment_table,
            (0, 1, 2, 3, 4),
            metrics=("throughput_mbps",),
            baselines=outcome.baselines,
        )
        assert "throughput_mbps" in estimates


class TestInProcess:
    @pytest.mark.parametrize(
        "task", ["experiments.switchback_emulation", "experiments.event_study_emulation"]
    )
    def test_emulations_are_not_runner_tasks(self, task):
        with pytest.raises(KeyError):
            get_task(task)


class TestDesignOrder:
    def test_designs_is_a_class_constant(self):
        fields = {field.name for field in dataclasses.fields(AlternateDesignComparison)}
        assert fields == {"paired_link", "switchback", "event_study"}
        with pytest.raises(TypeError):
            AlternateDesignComparison({}, {}, {}, ("x",))


class TestFigure10Shape:
    def test_rows_cover_all_designs(self, comparison):
        rows = comparison.rows(["throughput_mbps", "min_rtt_ms"])
        for row in rows:
            for design in ("paired_link", "switchback", "event_study"):
                assert design in row

    def test_switchback_recovers_paired_link_tte_for_key_metrics(self, comparison):
        for metric in ("min_rtt_ms", "video_bitrate_kbps", "play_delay_s"):
            assert comparison.switchback_covers_paired_link(metric), metric

    def test_switchback_sign_matches_paired_link(self, comparison):
        for metric in ("throughput_mbps", "min_rtt_ms", "video_bitrate_kbps"):
            sb = comparison.switchback[metric].relative.estimate
            pl = comparison.paired_link[metric].relative.estimate
            assert (sb > 0) == (pl > 0), metric

    def test_switchback_intervals_wider_than_paired_link(self, comparison):
        # Half the data -> wider confidence intervals.
        for metric in ("throughput_mbps", "min_rtt_ms"):
            assert (
                comparison.switchback[metric].relative.width
                >= comparison.paired_link[metric].relative.width * 0.8
            )

    def test_event_study_less_accurate_than_switchback_for_throughput(self, comparison):
        pl = comparison.paired_link["throughput_mbps"].relative.estimate
        sb_err = abs(comparison.switchback["throughput_mbps"].relative.estimate - pl)
        es_err = abs(comparison.event_study["throughput_mbps"].relative.estimate - pl)
        assert es_err >= sb_err * 0.5  # event study is at best comparable


class TestAACalibration:
    def test_switchback_split_has_no_large_false_positive(self, outcome):
        estimates = run_aa_calibration(
            outcome.aa_table,
            (0, 1, 2, 3, 4),
            treatment_days=(0, 2, 4),
            metrics=("throughput_mbps", "min_rtt_ms", "video_bitrate_kbps"),
        )
        for metric, estimate in estimates.items():
            assert abs(estimate.relative_percent) < 10.0, metric

    def test_aa_analysis_returns_requested_metrics(self, outcome):
        estimates = run_aa_calibration(
            outcome.aa_table, (0, 1, 2, 3, 4), treatment_days=(1, 3),
            metrics=("throughput_mbps",),
        )
        assert set(estimates) == {"throughput_mbps"}
