"""Tests for the parking-lot and fair-queueing topology experiments.

These pin the paper's two sharpest topology predictions:

* per-flow (per-unit) fair queueing eliminates the connection-count A/B
  bias, while drop-tail on the identical workload reproduces it;
* a multi-bottleneck parking lot with unmeasured cross traffic amplifies
  the bias relative to a single bottleneck, and spillover reaches
  control units that share no queue with the treatment.
"""

import pytest

from repro.experiments.lab_parking_lot import (
    ParkingLotComparison,
    run_fq_experiment,
    run_parking_lot_experiment,
)


@pytest.fixture(scope="module")
def fq_comparison(packet_arm_recorders):
    return run_fq_experiment(quick=True, executor=packet_arm_recorders["topo_fq"])


@pytest.fixture(scope="module")
def parking_comparison(packet_arm_recorders):
    return run_parking_lot_experiment(
        quick=True, executor=packet_arm_recorders["topo_parking"]
    )


class TestFqExperiment:
    def test_compares_droptail_against_fq_codel(self, fq_comparison):
        assert set(fq_comparison.figures) == {"droptail", "fq_codel"}

    def test_droptail_reproduces_clear_bias(self, fq_comparison):
        assert fq_comparison.bias("droptail") > 1.0

    def test_fq_codel_bias_is_approximately_zero(self, fq_comparison):
        # The paper's falsifiable prediction: per-unit fair queueing makes
        # the extra connection worthless, so the A/B bias collapses.
        assert abs(fq_comparison.bias("fq_codel")) < 0.5
        assert abs(fq_comparison.bias("fq_codel")) < 0.15 * fq_comparison.bias(
            "droptail"
        )

    def test_fq_codel_ab_estimate_itself_is_small(self, fq_comparison):
        figure = fq_comparison.figures["fq_codel"]
        baseline = figure.throughput_curve.mu_control(0.0)
        assert abs(figure.ab_estimate("throughput_mbps", 0.5)) < 0.1 * baseline

    def test_tte_near_zero_under_both_disciplines(self, fq_comparison):
        for figure in fq_comparison.figures.values():
            baseline = figure.throughput_curve.mu_control(0.0)
            assert abs(figure.tte("throughput_mbps")) / baseline < 0.2

    def test_figures_carry_the_topo_fq_name(self, fq_comparison):
        for figure in fq_comparison.figures.values():
            assert figure.name.startswith("topo_fq[")

    def test_summary_lines_cover_both_disciplines(self, fq_comparison):
        text = "\n".join(fq_comparison.summary_lines())
        assert "droptail" in text
        assert "fq_codel" in text
        assert "bias" in text.lower()

    def test_matches_golden(self, fq_comparison, assert_lab_golden):
        assert_lab_golden("topo_fq", fq_comparison)

    def test_packet_arm_keys_match_golden(
        self, fq_comparison, packet_arm_recorders, assert_packet_arm_golden
    ):
        assert_packet_arm_golden("topo_fq", packet_arm_recorders["topo_fq"].specs)


class TestParkingLotExperiment:
    def test_compares_single_against_parking(self, parking_comparison):
        assert set(parking_comparison.figures) == {"single", "parking"}

    def test_parking_lot_amplifies_the_bias(self, parking_comparison):
        single = parking_comparison.bias("single")
        parking = parking_comparison.bias("parking")
        assert single > 0.5  # the familiar single-bottleneck bias ...
        assert parking > single + 0.5  # ... clearly amplified by the chain

    def test_cross_segment_spillover_is_nonzero(self, parking_comparison):
        # Treating one unit shifts the outcomes of control units whose
        # spans share no queue with it: interference propagated along the
        # chain, invisible to any per-queue audit.
        assert abs(parking_comparison.remote_spillover_mbps) > 0.5

    def test_summary_lines_cover_topologies_and_spillover(self, parking_comparison):
        text = "\n".join(parking_comparison.summary_lines())
        assert "single" in text
        assert "parking" in text
        assert "cross-segment spillover" in text

    def test_matches_golden(self, parking_comparison, assert_lab_golden):
        assert_lab_golden("topo_parking", parking_comparison)

    def test_packet_arm_keys_match_golden(
        self, parking_comparison, packet_arm_recorders, assert_packet_arm_golden
    ):
        assert_packet_arm_golden(
            "topo_parking", packet_arm_recorders["topo_parking"].specs
        )

    def test_comparison_is_plain_dataclass(self, parking_comparison):
        rebuilt = ParkingLotComparison(
            figures=dict(parking_comparison.figures),
            n_segments=parking_comparison.n_segments,
            remote_spillover_mbps=parking_comparison.remote_spillover_mbps,
        )
        assert rebuilt.bias("parking") == parking_comparison.bias("parking")

    def test_too_few_segments_raise(self):
        with pytest.raises(ValueError):
            run_parking_lot_experiment(n_segments=2, quick=True)
        # 3 segments leave no pair of disjoint 2-segment spans, so the
        # cross-segment spillover would be unmeasurable.
        with pytest.raises(ValueError):
            run_parking_lot_experiment(n_segments=3, quick=True)
