"""Integration tests for the paired-link bitrate-capping experiment.

These are the repository's headline checks: the synthetic paired-link
experiment must reproduce the *qualitative* findings of the paper's
Section 4 — naive A/B estimates that are near zero or wrong-signed while
the TTE and spillover are large, with the specific per-metric patterns of
Figure 5 and the time-series/cell structure of Figures 6-9.
"""

import numpy as np
import pytest

from repro.core.units import SESSION_METRICS
from repro.experiments.baseline_validation import compare_links_at_baseline
from repro.experiments.paired_link import PairedLinkExperiment
from repro.workload.netflix import WorkloadConfig


@pytest.fixture(scope="module")
def outcome():
    """A single moderate-size run shared by all tests in this module."""
    config = WorkloadConfig(sessions_at_peak=220, n_accounts=3000, seed=11)
    return PairedLinkExperiment(config=config).run()


class TestRunStructure:
    def test_all_estimands_and_metrics_present(self, outcome):
        assert set(outcome.estimates) == {"ab_0.05", "ab_0.95", "tte", "spillover"}
        for per_metric in outcome.estimates.values():
            assert set(per_metric) == set(SESSION_METRICS)

    def test_experiment_covers_five_days_on_two_links(self, outcome):
        table = outcome.experiment_table
        assert set(table["day"].astype(int)) == {0, 1, 2, 3, 4}
        assert set(table["link"].astype(int)) == {1, 2}

    def test_baselines_use_global_control(self, outcome):
        control = outcome.experiment_table.where(link=2, treated=0)
        assert outcome.baselines["throughput_mbps"] == pytest.approx(
            control.mean("throughput_mbps")
        )

    def test_figure5_rows_cover_all_metrics(self, outcome):
        rows = outcome.figure5_rows()
        assert {row["metric"] for row in rows} == set(SESSION_METRICS)
        for row in rows:
            for estimand in ("ab_0.05", "ab_0.95", "tte", "spillover"):
                assert estimand in row
                low, high = row[f"{estimand}_ci"]
                assert low <= row[estimand] <= high


class TestWeeks:
    """A run generates the weeks it is asked for, each as the full protocol does."""

    @pytest.fixture(scope="class")
    def aa_only(self):
        config = WorkloadConfig(sessions_at_peak=220, n_accounts=3000, seed=11)
        return PairedLinkExperiment(config=config).run(weeks=("aa",))

    def test_default_runs_the_full_protocol(self, outcome):
        assert list(outcome.tables) == ["baseline", "experiment", "aa"]

    def test_a_week_run_alone_equals_the_same_week_in_the_protocol(self, outcome, aa_only):
        assert list(aa_only.tables) == ["aa"]
        assert aa_only.aa_table.column_names == outcome.aa_table.column_names
        for name in outcome.aa_table.column_names:
            assert aa_only.aa_table[name].tobytes() == outcome.aa_table[name].tobytes()

    def test_weeks_not_generated_raise(self, aa_only):
        for read in ("baseline_table", "experiment_table", "baselines", "estimates"):
            with pytest.raises(ValueError, match="did not generate"):
                getattr(aa_only, read)

    @pytest.mark.parametrize("weeks", [(), ("week",), ("experiment", "aa_week")])
    def test_bad_weeks_raise(self, weeks):
        with pytest.raises(ValueError):
            PairedLinkExperiment().run(weeks=weeks)

    def test_estimates_list_the_design_order_and_compute_when_read(self):
        config = WorkloadConfig(sessions_at_peak=60, n_accounts=500, seed=5)
        estimates = PairedLinkExperiment(config=config).run(weeks=("experiment",)).estimates
        assert list(estimates) == ["tte", "spillover", "ab_0.95", "ab_0.05"]
        assert len(estimates) == 4
        assert not estimates._evaluated
        assert estimates["spillover"] is estimates["spillover"]
        assert list(estimates._evaluated) == ["spillover"]
        with pytest.raises(KeyError):
            estimates["ab_0.5"]

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_one_estimate_analyzes_one_metric_and_equals_the_full_read(self, seed):
        config = WorkloadConfig(sessions_at_peak=60, n_accounts=500, seed=seed)
        outcome = PairedLinkExperiment(config=config).run(weeks=("experiment",))
        alone = outcome.estimate("tte", "retransmit_fraction")
        assert not outcome.estimates._evaluated
        full = outcome.estimates["tte"]["retransmit_fraction"]
        assert alone == full
        assert outcome.estimate("tte", "retransmit_fraction") is full


class TestFigure5Shape:
    """The headline qualitative pattern of the paper's Figure 5."""

    def test_throughput_naive_small_or_negative_but_tte_positive(self, outcome):
        naive_05 = outcome.estimate("ab_0.05", "throughput_mbps").relative_percent
        naive_95 = outcome.estimate("ab_0.95", "throughput_mbps").relative_percent
        tte = outcome.estimate("tte", "throughput_mbps").relative_percent
        assert naive_05 < 3.0 and naive_95 < 3.0
        assert tte > 3.0
        assert tte > naive_05 and tte > naive_95

    def test_throughput_spillover_positive(self, outcome):
        assert outcome.estimate("spillover", "throughput_mbps").relative_percent > 5.0

    def test_min_rtt_naive_positive_but_tte_negative(self, outcome):
        """The paper's 'smoking gun': naive tests report increased minimum
        RTT while the true effect is a large decrease."""
        naive_05 = outcome.estimate("ab_0.05", "min_rtt_ms").relative_percent
        tte = outcome.estimate("tte", "min_rtt_ms").relative_percent
        assert naive_05 > 0.0
        assert tte < -8.0

    def test_min_rtt_spillover_negative(self, outcome):
        assert outcome.estimate("spillover", "min_rtt_ms").relative_percent < -8.0

    def test_play_delay_missed_by_naive_tests(self, outcome):
        naive_05 = abs(outcome.estimate("ab_0.05", "play_delay_s").relative_percent)
        naive_95 = abs(outcome.estimate("ab_0.95", "play_delay_s").relative_percent)
        tte = outcome.estimate("tte", "play_delay_s").relative_percent
        assert naive_05 < 5.0 and naive_95 < 5.0
        assert tte < -5.0

    def test_video_bitrate_reduction_large_everywhere(self, outcome):
        for estimand in ("ab_0.05", "ab_0.95", "tte"):
            assert outcome.estimate(estimand, "video_bitrate_kbps").relative_percent < -25.0

    def test_bytes_sent_reduced(self, outcome):
        assert outcome.estimate("tte", "bytes_sent_gb").relative_percent < -20.0

    def test_retransmit_fraction_tte_positive(self, outcome):
        assert outcome.estimate("tte", "retransmit_fraction").relative_percent > 0.0

    def test_rebuffers_improve_in_naive_tests(self, outcome):
        assert outcome.estimate("ab_0.05", "rebuffer_rate").relative_percent < -5.0
        assert outcome.estimate("ab_0.95", "rebuffer_rate").relative_percent < -5.0

    def test_perceptual_quality_cost_is_small(self, outcome):
        assert abs(outcome.estimate("tte", "perceptual_quality").relative_percent) < 6.0

    def test_sign_flip_detected_for_min_rtt(self, outcome):
        naive = outcome.estimate("ab_0.05", "min_rtt_ms").relative.estimate
        tte = outcome.estimate("tte", "min_rtt_ms").relative.estimate
        assert (naive > 0) != (tte > 0)


class TestFigure6Series:
    def test_series_normalized_to_one(self, outcome):
        series = outcome.figure6_series()
        for period in ("baseline", "experiment"):
            values = [v for hours in series[period].values() for v in hours.values()]
            assert max(values) == pytest.approx(1.0)
            assert min(values) > 0.0

    def test_links_similar_at_baseline_but_different_in_experiment(self, outcome):
        series = outcome.figure6_series()
        peak_hours = range(18, 23)

        def peak_gap(period):
            link1 = series[period][1]
            link2 = series[period][2]
            return np.mean([link1[h] - link2[h] for h in peak_hours if h in link1 and h in link2])

        assert abs(peak_gap("baseline")) < 0.1
        assert peak_gap("experiment") > 0.05

    def test_peak_hours_have_lower_throughput_than_off_peak(self, outcome):
        series = outcome.figure6_series()["experiment"][2]
        assert series[20] < series[10]


class TestCellFigures:
    def test_figure7_throughput_cells(self, outcome):
        cells = outcome.figure7_cells()
        # Both link-1 cells beat both link-2 cells (capping relieved congestion).
        assert min(cells.link1_treated, cells.link1_control) > max(
            cells.link2_treated, cells.link2_control
        ) * 0.98
        assert cells.approximate_tte > 0.0
        assert cells.spillover > 0.0

    def test_figure8_rtt_cells_normalized(self, outcome):
        cells = outcome.figure8_cells()
        values = [
            cells.link1_treated,
            cells.link1_control,
            cells.link2_treated,
            cells.link2_control,
        ]
        assert min(values) == pytest.approx(1.0)
        # Link 2 (mostly uncapped) has the large standing queue.
        assert cells.link2_control > cells.link1_control

    def test_cell_means_unknown_metric_raises(self, outcome):
        with pytest.raises(KeyError):
            outcome.cell_means("nope")


class TestFigure9:
    def test_retransmits_up_off_peak_down_at_peak(self, outcome):
        split = outcome.figure9_retransmit_split()
        assert split["off_peak"] > 0.0
        assert split["peak"] < 0.0
        assert split["overall"] > split["peak"]


class TestFigure13:
    def test_hourly_intervals_at_least_as_wide_as_account(self, outcome):
        comparison = outcome.figure13_ci_comparison(["throughput_mbps", "video_bitrate_kbps"])
        for metric in ("throughput_mbps", "video_bitrate_kbps"):
            hourly = comparison["hourly"][metric].relative.width
            account = comparison["account"][metric].relative.width
            assert hourly >= account * 0.9

    def test_point_estimates_agree_between_aggregations(self, outcome):
        comparison = outcome.figure13_ci_comparison(["video_bitrate_kbps"])
        hourly = comparison["hourly"]["video_bitrate_kbps"].relative.estimate
        account = comparison["account"]["video_bitrate_kbps"].relative.estimate
        assert hourly == pytest.approx(account, abs=0.1)


class TestBaselineValidation:
    def test_rebuffer_difference_matches_configured_link_effect(self, outcome):
        rows = {r.metric: r for r in compare_links_at_baseline(outcome.baseline_table)}
        assert rows["rebuffer_rate"].relative_percent == pytest.approx(20.0, abs=8.0)
        assert rows["bytes_sent_gb"].relative_percent == pytest.approx(5.0, abs=4.0)

    def test_network_metrics_similar_at_baseline(self, outcome):
        rows = {r.metric: r for r in compare_links_at_baseline(outcome.baseline_table)}
        for metric in ("throughput_mbps", "min_rtt_ms", "video_bitrate_kbps"):
            assert abs(rows[metric].relative_percent) < 5.0

    def test_missing_link_raises(self, outcome):
        with pytest.raises(ValueError):
            compare_links_at_baseline(outcome.baseline_table, link_a=1, link_b=9)
