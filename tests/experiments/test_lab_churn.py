"""Tests for the churn experiments (dynamic traffic, switchback-vs-ramp).

These pin the two claims the dynamic-traffic subsystem exists to test:

* the zero-churn arm of the churn sweep IS the static experiment — same
  specs, same numbers — so the bias-vs-intensity curve is anchored at
  today's result;
* under demand that ramps across the experiment, the randomized
  switchback tracks the ground-truth TTE while the before/after event
  study conflates the launch with the ramp.
"""

import argparse

import pytest

from repro.experiments.lab_churn import (
    _parse_churn_rates,
    run_churn_experiment,
    run_switchback_ramp_experiment,
)
from repro.experiments.lab_topology import run_aqm_experiment
from repro.runner.executor import ParallelExecutor


@pytest.fixture(scope="module")
def churn_comparison(packet_arm_recorders):
    return run_churn_experiment(
        quick=True, seed=0, executor=packet_arm_recorders["topo_churn"]
    )


@pytest.fixture(scope="module")
def ramp_outcome(packet_arm_recorders):
    return run_switchback_ramp_experiment(
        quick=True, seed=0, executor=packet_arm_recorders["switchback_ramp"]
    )


class TestChurnExperiment:
    def test_all_requested_intensities_present(self, churn_comparison):
        assert churn_comparison.rates() == (0.0, 2.0, 6.0)
        assert set(churn_comparison.churn) == {0.0, 2.0, 6.0}

    def test_zero_churn_matches_static_droptail_result(self, churn_comparison):
        # The acceptance anchor: no churn sources means byte-identical
        # specs to the static drop-tail sweep, so every curve matches
        # today's topo_aqm drop-tail figure exactly.
        static = run_aqm_experiment(disciplines=("droptail",), quick=True)
        static_figure = static.figures["droptail"]
        zero = churn_comparison.figures[0.0]
        assert zero.rows == static_figure.rows  # every cell, exactly
        assert zero.tte("throughput_mbps") == static_figure.tte("throughput_mbps")
        assert churn_comparison.bias(0.0) == static.bias("droptail")

    def test_bias_positive_at_every_intensity(self, churn_comparison):
        for rate in churn_comparison.rates():
            assert churn_comparison.bias(rate) > 0.5

    def test_churn_stats_scale_with_intensity(self, churn_comparison):
        zero = churn_comparison.churn[0.0]
        low = churn_comparison.churn[2.0]
        high = churn_comparison.churn[6.0]
        assert zero.flows_started == 0 and zero.mean_fct_s is None
        assert 0 < low.flows_started < high.flows_started
        assert low.mean_fct_s > 0
        assert high.flows_completed > 0

    def test_summary_lines_cover_bias_and_fct(self, churn_comparison):
        text = "\n".join(churn_comparison.summary_lines())
        assert "churn intensity: 0 flows/s" in text
        assert "churn intensity: 6 flows/s" in text
        assert "mean FCT" in text
        assert "bias" in text.lower()

    def test_matches_golden(self, churn_comparison, assert_lab_golden):
        assert_lab_golden("topo_churn", churn_comparison)

    def test_packet_arm_keys_match_golden(
        self, churn_comparison, ramp_outcome, packet_arm_recorders, assert_packet_arm_golden
    ):
        # ``repro topo_churn`` runs the churn sweep, then the ramp.
        assert_packet_arm_golden(
            "topo_churn",
            [
                *packet_arm_recorders["topo_churn"].specs,
                *packet_arm_recorders["switchback_ramp"].specs,
            ],
        )

    def test_seeded_run_reproducible(self):
        a = run_churn_experiment(churn_rates=(3.0,), quick=True, seed=5)
        b = run_churn_experiment(churn_rates=(3.0,), quick=True, seed=5)
        assert a.bias(3.0) == b.bias(3.0)
        assert a.churn[3.0] == b.churn[3.0]

    def test_jobs_do_not_change_results(self):
        serial = run_churn_experiment(churn_rates=(4.0,), quick=True, seed=2)
        parallel = run_churn_experiment(
            churn_rates=(4.0,), quick=True, seed=2, executor=ParallelExecutor(jobs=4)
        )
        assert serial.bias(4.0) == parallel.bias(4.0)
        assert serial.churn[4.0] == parallel.churn[4.0]
        assert serial.figures[4.0].rows == parallel.figures[4.0].rows

    @pytest.mark.parametrize("text", ["inf", "nan", "0,inf", "2,nan"])
    def test_non_finite_churn_rates_are_a_usage_error(self, text, capsys):
        # An infinite or NaN arrival rate used to hang the run.
        with pytest.raises(SystemExit) as exc:
            _parse_churn_rates(text, argparse.ArgumentParser(prog="topo_churn"))
        assert exc.value.code == 2
        assert "--churn-rates" in capsys.readouterr().err

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            run_churn_experiment(churn_rates=(), quick=True)
        with pytest.raises(ValueError):
            run_churn_experiment(churn_rates=(1.0, -2.0), quick=True)
        with pytest.raises(ValueError):
            run_churn_experiment(churn_rates=(1.0, 1.0), quick=True)


class TestSwitchbackRamp:
    def test_interval_assignment_is_balanced(self, ramp_outcome):
        treated = len(ramp_outcome.treatment_intervals)
        assert treated == ramp_outcome.n_intervals // 2
        assert sorted(set(ramp_outcome.treatment_intervals)) == sorted(
            ramp_outcome.treatment_intervals
        )

    def test_demand_really_ramps(self, ramp_outcome):
        m = ramp_outcome.demand_multipliers
        assert m[0] == 1.0
        assert m[-1] > 2.0
        assert list(m) == sorted(m)

    def test_switchback_beats_event_study_under_ramp(self, ramp_outcome):
        # The headline: randomized intervals absorb the demand trend the
        # before/after comparison conflates with the launch.
        assert ramp_outcome.switchback_error() < ramp_outcome.event_study_error()

    def test_event_study_biased_downward_by_rising_demand(self, ramp_outcome):
        # Rising churn depresses later (all-treated) intervals, so the
        # event study under-estimates relative to the truth.
        assert ramp_outcome.event_study_estimate < ramp_outcome.truth_tte

    def test_summary_lines_name_both_designs(self, ramp_outcome):
        text = "\n".join(ramp_outcome.summary_lines())
        assert "switchback" in text
        assert "event-study" in text
        assert "ground-truth" in text

    def test_seeded_run_reproducible(self, ramp_outcome):
        again = run_switchback_ramp_experiment(quick=True, seed=0)
        assert again.switchback_estimate == ramp_outcome.switchback_estimate
        assert again.event_study_estimate == ramp_outcome.event_study_estimate
        assert again.truth_tte == ramp_outcome.truth_tte

    def test_jobs_do_not_change_results(self):
        serial = run_switchback_ramp_experiment(quick=True, seed=1)
        parallel = run_switchback_ramp_experiment(
            quick=True, seed=1, executor=ParallelExecutor(jobs=4)
        )
        assert serial == parallel


class TestFctPercentiles:
    """The PR-4 follow-up: FCT percentiles surfaced beyond the mean."""

    def test_percentiles_present_and_ordered_under_churn(self, churn_comparison):
        for rate in (2.0, 6.0):
            stats = churn_comparison.churn[rate]
            assert stats.p50_fct_s is not None
            assert stats.p50_fct_s <= stats.p95_fct_s <= stats.p99_fct_s
            # Heavy-tailed sizes: the tail stretches well past the median.
            assert stats.p99_fct_s > stats.p50_fct_s

    def test_percentiles_none_without_completions(self, churn_comparison):
        zero = churn_comparison.churn[0.0]
        assert zero.p50_fct_s is None
        assert zero.p95_fct_s is None
        assert zero.p99_fct_s is None

    def test_summary_lines_show_the_tail(self, churn_comparison):
        text = "\n".join(churn_comparison.summary_lines())
        assert "p50" in text and "p95" in text and "p99" in text

    def test_figure_cells_emit_percentiles(self):
        from repro.runner.spec import ScenarioSpec, run_spec

        cells = run_spec(
            ScenarioSpec(
                task="figure.cells",
                params={"figure": "topo_churn", "quick": True},
                seed=0,
            )
        )
        for rate in (0, 2, 6):
            for name in ("fct_p50_s", "fct_p95_s", "fct_p99_s"):
                assert f"{name}:churn{rate}" in cells
        # Zero churn has no completions: the placeholder cell is 0.0.
        assert cells["fct_p50_s:churn0"] == 0.0
        assert cells["fct_p95_s:churn6"] >= cells["fct_p50_s:churn6"]


class TestTrafficSplit:
    """The PR-4 follow-up: a production-split (e.g. 95/5) switchback."""

    @pytest.fixture(scope="class")
    def split_outcome(self):
        # 75/25 keeps the quick unit count (4 units: 3 treated / 1
        # control) so the variant stays cheap; the mechanics are the
        # same as 95/5's.
        return run_switchback_ramp_experiment(
            quick=True, seed=0, executor=ParallelExecutor(jobs=4), traffic_split=0.75
        )

    def test_split_recorded_and_within_interval_reported(self, split_outcome):
        assert split_outcome.traffic_split == 0.75
        assert split_outcome.within_interval_ab_estimate is not None
        assert split_outcome.within_interval_error() is not None

    def test_within_interval_estimator_biased_by_interference(self, split_outcome):
        # The naive within-interval A/B at a production split inherits
        # the connection-count interference bias: it promises far more
        # than the ground-truth TTE delivers.
        assert (
            split_outcome.within_interval_ab_estimate - split_outcome.truth_tte
            > 1.0
        )

    def test_pure_switchback_has_no_within_interval_estimate(self, ramp_outcome):
        assert ramp_outcome.traffic_split == 1.0
        assert ramp_outcome.within_interval_ab_estimate is None
        assert ramp_outcome.within_interval_error() is None
        assert ramp_outcome.allocation_units is None

    def test_summary_mentions_the_split(self, split_outcome):
        text = "\n".join(split_outcome.summary_lines())
        assert "75%/25%" in text
        assert "within-interval" in text

    def test_rounded_split_never_degenerates_to_fifty_fifty(self):
        # Banker's rounding of 0.6 * 4 lands on exactly n/2; the clamp
        # must force a strict majority so treatment and control intervals
        # genuinely differ.
        outcome = run_switchback_ramp_experiment(
            quick=True, seed=0, executor=ParallelExecutor(jobs=4), traffic_split=0.6
        )
        k_lo, k_hi = outcome.allocation_units
        assert k_hi > k_lo
        assert k_hi + k_lo > 0

    def test_allocation_units_exposed_for_mixed_splits(self, split_outcome):
        # Quick scale: 4 units at 75/25 -> 3 treated in treatment
        # intervals, 1 in control intervals.
        assert split_outcome.allocation_units == (1, 3)

    def test_unit_count_scales_for_fine_splits(self):
        # 0.95 needs at least 20 units for the 5% arm to exist; the
        # validation itself must accept the production split.
        import math

        assert math.ceil(1.0 / (1.0 - 0.95)) == 20

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            run_switchback_ramp_experiment(traffic_split=0.5, quick=True)
        with pytest.raises(ValueError):
            run_switchback_ramp_experiment(traffic_split=1.2, quick=True)

    def test_pure_split_unchanged_by_the_new_parameter(self, ramp_outcome):
        # traffic_split=1.0 must reproduce the historical pure result
        # exactly (same specs, same cache keys).
        explicit = run_switchback_ramp_experiment(
            quick=True, seed=0, traffic_split=1.0
        )
        assert explicit.switchback_estimate == ramp_outcome.switchback_estimate
        assert explicit.truth_tte == ramp_outcome.truth_tte
