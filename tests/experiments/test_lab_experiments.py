"""Tests for the lab experiment harnesses (Figures 2a, 2b and 3)."""

import pytest

from repro.experiments.lab_cc import run_cc_experiment
from repro.experiments.lab_common import LabFigure, sweep_to_figure
from repro.experiments.lab_connections import run_connections_experiment
from repro.experiments.lab_pacing import run_pacing_experiment


@pytest.fixture(scope="module")
def connections_figure():
    return run_connections_experiment()


@pytest.fixture(scope="module")
def pacing_figure():
    return run_pacing_experiment()


@pytest.fixture(scope="module")
def cc_figure():
    return run_cc_experiment()


class TestConnectionsFigure:
    """Shape checks against the paper's Section 3.1 findings."""

    def test_eleven_rows(self, connections_figure):
        assert len(connections_figure.rows) == 11

    def test_ab_estimate_is_plus_100_percent_throughput(self, connections_figure):
        for allocation in (0.1, 0.5, 0.9):
            ab = connections_figure.ab_estimate("throughput_mbps", allocation)
            control = connections_figure.throughput_curve.mu_control(allocation)
            assert ab / control == pytest.approx(1.0, rel=0.05)

    def test_ab_estimate_shows_no_retransmission_change(self, connections_figure):
        for allocation in (0.1, 0.5, 0.9):
            estimate = connections_figure.ab_estimate("retransmit_fraction", allocation)
            assert estimate == pytest.approx(0.0, abs=1e-6)

    def test_throughput_tte_is_zero(self, connections_figure):
        assert connections_figure.tte("throughput_mbps") == pytest.approx(0.0, abs=1e-6)

    def test_retransmission_tte_is_large_increase(self, connections_figure):
        tte = connections_figure.tte("retransmit_fraction")
        baseline = connections_figure.retransmit_curve.mu_control(0.0)
        assert tte / baseline > 1.0  # at least a 100 % relative increase

    def test_spillover_reduces_control_throughput(self, connections_figure):
        # The paper reports a ~25 % throughput decrease on the one remaining
        # single-connection application; the idealized per-connection
        # fairness model gives an even larger decrease (C/19 vs C/10).
        spill = connections_figure.spillover("throughput_mbps", 0.9)
        baseline = connections_figure.throughput_curve.mu_control(0.0)
        assert spill / baseline < -0.2

    def test_treated_throughput_declines_with_adoption(self, connections_figure):
        curve = connections_figure.throughput_curve
        assert curve.mu_treatment(0.1) > curve.mu_treatment(0.5) > curve.mu_treatment(1.0)


class TestPacingFigure:
    """Shape checks against the paper's Section 3.2 findings."""

    def test_paced_gets_half_throughput_in_any_ab_test(self, pacing_figure):
        for allocation in (0.1, 0.5, 0.9):
            treated = pacing_figure.throughput_curve.mu_treatment(allocation)
            control = pacing_figure.throughput_curve.mu_control(allocation)
            assert treated / control == pytest.approx(0.5, rel=0.05)

    def test_throughput_tte_is_zero(self, pacing_figure):
        assert pacing_figure.tte("throughput_mbps") == pytest.approx(0.0, abs=1e-6)

    def test_retransmission_tte_is_large_decrease(self, pacing_figure):
        tte = pacing_figure.tte("retransmit_fraction")
        baseline = pacing_figure.retransmit_curve.mu_control(0.0)
        assert tte / baseline < -0.5

    def test_ab_test_shows_no_retransmission_benefit(self, pacing_figure):
        for allocation in (0.1, 0.5, 0.9):
            assert pacing_figure.ab_estimate("retransmit_fraction", allocation) == pytest.approx(
                0.0, abs=1e-6
            )

    def test_spillover_on_unpaced_traffic_is_positive(self, pacing_figure):
        assert pacing_figure.spillover("throughput_mbps", 0.9) > 0.0


class TestCongestionControlFigure:
    """Shape checks against the paper's Section 3.3 findings."""

    def test_minority_bbr_wins_big(self, cc_figure):
        ab = cc_figure.ab_estimate("throughput_mbps", 0.1)
        control = cc_figure.throughput_curve.mu_control(0.1)
        assert ab / control > 1.0  # more than double

    def test_minority_cubic_also_wins_big(self, cc_figure):
        # At 90 % BBR allocation, the remaining Cubic flow dominates, so the
        # "treatment minus control" estimate is strongly negative.
        ab = cc_figure.ab_estimate("throughput_mbps", 0.9)
        treated = cc_figure.throughput_curve.mu_treatment(0.9)
        assert ab < 0.0
        assert abs(ab) > treated

    def test_throughput_tte_is_zero(self, cc_figure):
        assert cc_figure.tte("throughput_mbps") == pytest.approx(0.0, abs=1e-6)

    def test_swapping_roles_mirrors_the_result(self):
        swapped = run_cc_experiment(treatment_cc="cubic", control_cc="bbr")
        assert swapped.ab_estimate("throughput_mbps", 0.1) > 0.0
        assert swapped.tte("throughput_mbps") == pytest.approx(0.0, abs=1e-6)


class TestLabFigureHelpers:
    def test_summary_lines_mention_tte(self, connections_figure):
        lines = connections_figure.summary_lines()
        assert any("TTE" in line for line in lines)
        assert len(lines) > 11

    def test_unknown_metric_raises(self, connections_figure):
        with pytest.raises(KeyError):
            connections_figure.tte("nope")

    def test_sweep_to_figure_builds_from_any_sweep(self):
        from repro.netsim.fluid.application import Application
        from repro.netsim.fluid.lab import run_lab_sweep

        sweep = run_lab_sweep(
            4, lambda i: Application(i, connections=2), lambda i: Application(i)
        )
        figure = sweep_to_figure(sweep, "custom", "a four-unit sweep")
        assert isinstance(figure, LabFigure)
        assert len(figure.rows) == 5
        assert figure.name == "custom"


class TestLabGoldens:
    """Each lab figure's output, pinned exactly (``tests/golden/lab/``)."""

    def test_fig2a(self, connections_figure, assert_lab_golden):
        assert_lab_golden("fig2a", connections_figure)

    def test_fig2a_noisy_arms_are_seeded_per_allocation(self, assert_lab_golden):
        # The arm with k treated units draws its noise from seed + k.
        assert_lab_golden(
            "fig2a-noise0.05-seed3", run_connections_experiment(noise=0.05, seed=3)
        )

    def test_fig2b(self, pacing_figure, assert_lab_golden):
        assert_lab_golden("fig2b", pacing_figure)

    def test_fig3(self, cc_figure, assert_lab_golden):
        assert_lab_golden("fig3", cc_figure)
