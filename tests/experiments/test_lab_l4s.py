"""Tests for the L4S lab (signal-based vs scheduling-based sharing).

The pinned claims:

* the connection-count A/B bias survives every signal-based arm — L4S's
  fine-grained marking and proportional response trim it below the
  classic-ECN CoDel arm's, but only scheduling-based FQ-CoDel collapses
  it (the acceptance ordering of the L4S lab);
* classic and L4S traffic coexist on one DualPI2 bottleneck without
  starvation (the RFC 9332 coupling law at work);
* the whole experiment is bit-identical for any worker count.
"""

import pytest

from repro.experiments.lab_l4s import L4S_ARMS, run_l4s_experiment
from repro.runner.executor import ParallelExecutor
from repro.runner.spec import ScenarioSpec, run_spec


@pytest.fixture(scope="module")
def l4s_comparison(packet_arm_recorders):
    return run_l4s_experiment(quick=True, seed=0, executor=packet_arm_recorders["topo_l4s"])


class TestL4sExperiment:
    def test_all_four_arms_present(self, l4s_comparison):
        assert l4s_comparison.arms() == tuple(arm for arm, *_ in L4S_ARMS)
        assert set(l4s_comparison.figures) == {
            "droptail",
            "codel-classic",
            "dualpi2-l4s",
            "fq_codel",
        }

    def test_bias_reported_for_every_arm(self, l4s_comparison):
        for arm in l4s_comparison.arms():
            assert l4s_comparison.bias(arm) == pytest.approx(
                l4s_comparison.figures[arm].ab_estimate("throughput_mbps", 0.5)
                - l4s_comparison.figures[arm].tte("throughput_mbps")
            )

    def test_l4s_bias_smaller_than_classic_ecn_codel(self, l4s_comparison):
        # The acceptance ordering: the DualPI2/L4S arm's smooth
        # proportional response tracks the fair share without the
        # halving sawtooth that overshoots in favour of multi-connection
        # units, so its bias lands below the classic-ECN CoDel arm's.
        assert l4s_comparison.bias("dualpi2-l4s") < l4s_comparison.bias(
            "codel-classic"
        )

    def test_signal_based_sharing_does_not_collapse_the_bias(self, l4s_comparison):
        # The lab's falsifiable answer: every connection sees the same
        # marks, so a second connection still buys close to a second
        # share — the bias stays large under the full L4S stack ...
        assert l4s_comparison.bias("dualpi2-l4s") > 1.0
        assert l4s_comparison.bias("droptail") > 1.0

    def test_only_scheduling_collapses_the_bias(self, l4s_comparison):
        # ... while per-unit fair queueing eliminates it (PR 3's result,
        # reproduced here as the reference arm).
        assert abs(l4s_comparison.bias("fq_codel")) < 0.5
        assert l4s_comparison.bias("fq_codel") < l4s_comparison.bias("dualpi2-l4s")

    def test_coexistence_without_starvation(self, l4s_comparison):
        # Classic and L4S units share one DualPI2 bottleneck.  The
        # coupling law keeps the camps in the same ballpark (the L queue's
        # near-zero delay gives L4S an RTT edge, so the ratio sits above
        # one, far from the starvation either camp risks without coupling).
        assert l4s_comparison.coexistence_classic_mbps > 1.0
        assert l4s_comparison.coexistence_l4s_mbps > 1.0
        assert 0.5 < l4s_comparison.coexistence_ratio < 2.5

    def test_summary_names_every_arm_and_the_ratio(self, l4s_comparison):
        text = "\n".join(l4s_comparison.summary_lines())
        for arm in l4s_comparison.arms():
            assert arm in text
        assert "coexistence" in text
        assert "ratio" in text

    def test_matches_golden(self, l4s_comparison, assert_lab_golden):
        assert_lab_golden("topo_l4s", l4s_comparison)

    def test_packet_arm_keys_match_golden(
        self, l4s_comparison, packet_arm_recorders, assert_packet_arm_golden
    ):
        # The four arms' sweeps, then the coexistence run.
        assert_packet_arm_golden("topo_l4s", packet_arm_recorders["topo_l4s"].specs)


class TestDeterminism:
    def test_jobs_do_not_change_results(self, l4s_comparison):
        # The acceptance determinism pin: a 4-worker run is bit-identical
        # to the serial one, figure rows and coexistence cells included.
        parallel = run_l4s_experiment(quick=True, seed=0, executor=ParallelExecutor(jobs=4))
        for arm in l4s_comparison.arms():
            assert parallel.figures[arm].rows == l4s_comparison.figures[arm].rows
            assert parallel.bias(arm) == l4s_comparison.bias(arm)
        assert parallel.coexistence_l4s_mbps == l4s_comparison.coexistence_l4s_mbps
        assert (
            parallel.coexistence_classic_mbps
            == l4s_comparison.coexistence_classic_mbps
        )

    def test_seeded_run_reproducible(self, l4s_comparison):
        again = run_l4s_experiment(quick=True, seed=0)
        for arm in l4s_comparison.arms():
            assert again.figures[arm].rows == l4s_comparison.figures[arm].rows
        assert again.coexistence_ratio == l4s_comparison.coexistence_ratio


class TestFigureCells:
    def test_topo_l4s_cells_cover_arms_and_coexistence(self):
        result = run_spec(
            ScenarioSpec(
                task="figure.cells", params={"figure": "topo_l4s", "quick": True}
            )
        )
        assert set(result) == {
            "bias_throughput@0.5:droptail",
            "bias_throughput@0.5:codel-classic",
            "bias_throughput@0.5:dualpi2-l4s",
            "bias_throughput@0.5:fq_codel",
            "coexistence_ratio",
        }
        assert result["bias_throughput@0.5:dualpi2-l4s"] < result[
            "bias_throughput@0.5:codel-classic"
        ]
