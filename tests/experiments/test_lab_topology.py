"""Tests for the topology experiments (RTT heterogeneity, AQM vs drop-tail)."""

import argparse

import pytest

from repro.cli import main
from repro.experiments.lab_churn import ChurnBiasComparison
from repro.experiments.lab_common import BiasComparison
from repro.experiments.lab_l4s import L4sBiasComparison
from repro.experiments.lab_parking_lot import ParkingLotComparison
from repro.experiments.lab_topology import (
    AqmBiasComparison,
    _parse_rtt_spread,
    run_aqm_experiment,
    run_rtt_experiment,
)
from repro.runner.executor import ParallelExecutor


@pytest.fixture(scope="module")
def rtt_figure(packet_arm_recorders):
    return run_rtt_experiment(quick=True, executor=packet_arm_recorders["topo_rtt"])


@pytest.fixture(scope="module")
def aqm_comparison(packet_arm_recorders):
    return run_aqm_experiment(quick=True, executor=packet_arm_recorders["topo_aqm"])


class TestRttExperiment:
    def test_allocation_endpoints_present(self, rtt_figure):
        allocations = [row.allocation for row in rtt_figure.rows]
        assert 0.0 in allocations
        assert 1.0 in allocations

    def test_naive_ab_still_biased_under_rtt_heterogeneity(self, rtt_figure):
        # The paper's bias survives heterogeneous RTTs: the naive A/B
        # estimate at 50% promises a large gain the TTE does not deliver.
        ab = rtt_figure.ab_estimate("throughput_mbps", 0.5)
        tte = rtt_figure.tte("throughput_mbps")
        assert ab > 1.0
        assert ab - tte > 1.0

    def test_throughput_tte_small_relative_to_capacity(self, rtt_figure):
        # Opening extra connections cannot create capacity at any RTT mix.
        baseline = rtt_figure.throughput_curve.mu_control(0.0)
        assert abs(rtt_figure.tte("throughput_mbps")) / baseline < 0.2

    def test_spillover_negative(self, rtt_figure):
        assert rtt_figure.spillover("throughput_mbps", 0.5) < 0.0

    def test_matches_golden(self, rtt_figure, assert_lab_golden):
        assert_lab_golden("topo_rtt", rtt_figure)

    def test_packet_arm_keys_match_golden(
        self, rtt_figure, packet_arm_recorders, assert_packet_arm_golden
    ):
        assert_packet_arm_golden("topo_rtt", packet_arm_recorders["topo_rtt"].specs)

    @pytest.mark.parametrize("text", ["nan", "inf", "10,nan", "20,inf"])
    def test_non_finite_rtt_spread_is_a_usage_error(self, text, capsys):
        # A NaN spread used to print a figure of 0 Mb/s throughputs.
        with pytest.raises(SystemExit) as exc:
            _parse_rtt_spread(text, argparse.ArgumentParser(prog="topo_rtt"))
        assert exc.value.code == 2
        assert "--rtt-spread" in capsys.readouterr().err

    def test_empty_rtt_spread_raises(self):
        with pytest.raises(ValueError):
            run_rtt_experiment(rtt_spread_ms=())

    def test_passed_executor_runs_every_arm(self, rtt_figure):
        arms = []
        executor = ParallelExecutor(on_task_done=lambda done, total, run: arms.append(run))
        figure = run_rtt_experiment(quick=True, executor=executor)
        assert len(arms) == 3
        assert figure.rows == rtt_figure.rows


class TestAqmExperiment:
    def test_compares_requested_disciplines(self, aqm_comparison):
        assert set(aqm_comparison.figures) == {"droptail", "codel"}

    def test_bias_positive_under_both_disciplines(self, aqm_comparison):
        # The connection-count treatment looks like a win in a naive A/B
        # test under every discipline; AQM changes the size, not the sign.
        for discipline in aqm_comparison.figures:
            assert aqm_comparison.bias(discipline) > 0.5

    def test_tte_near_zero_under_both_disciplines(self, aqm_comparison):
        for figure in aqm_comparison.figures.values():
            baseline = figure.throughput_curve.mu_control(0.0)
            assert abs(figure.tte("throughput_mbps")) / baseline < 0.2

    def test_summary_lines_cover_disciplines_and_bias(self, aqm_comparison):
        text = "\n".join(aqm_comparison.summary_lines())
        assert "droptail" in text
        assert "codel" in text
        assert "bias" in text.lower()

    def test_matches_golden(self, aqm_comparison, assert_lab_golden):
        assert_lab_golden("topo_aqm", aqm_comparison)

    def test_packet_arm_keys_match_golden(
        self, aqm_comparison, packet_arm_recorders, assert_packet_arm_golden
    ):
        assert_packet_arm_golden("topo_aqm", packet_arm_recorders["topo_aqm"].specs)

    def test_no_disciplines_raises(self):
        with pytest.raises(ValueError):
            run_aqm_experiment(disciplines=())

    def test_repeated_discipline_raises(self):
        with pytest.raises(ValueError, match="distinct"):
            run_aqm_experiment(disciplines=("droptail", "droptail"), quick=True)

    @pytest.mark.parametrize("figure", ["topo_aqm", "topo_fq"])
    def test_cli_rejects_repeated_discipline(self, figure, capsys):
        with pytest.raises(SystemExit) as exc:
            main([figure, "--quick", "--disciplines", "droptail,codel,droptail"])
        assert exc.value.code == 2
        assert "distinct" in capsys.readouterr().err

    def test_comparison_is_plain_dataclass(self, aqm_comparison):
        rebuilt = AqmBiasComparison(figures=dict(aqm_comparison.figures))
        assert rebuilt.bias("droptail") == aqm_comparison.bias("droptail")


class TestBiasComparison:
    def test_topology_labs_share_one_bias_report(self):
        for comparison in (
            AqmBiasComparison,
            ParkingLotComparison,
            ChurnBiasComparison,
            L4sBiasComparison,
        ):
            assert issubclass(comparison, BiasComparison)
