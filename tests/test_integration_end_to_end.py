"""End-to-end integration test: the whole pipeline in one small run.

Exercises the public API exactly the way the quickstart example does:
lab sweeps feeding the causal estimands, the paired-link workload feeding
the regression pipeline, the design emulations, and the interference
diagnostics — all on a deliberately small configuration so the test stays
fast.
"""

import pytest

from repro.core.analysis.interference import detect_interference
from repro.core.designs.gradual_deployment import GradualDeploymentDesign
from repro.core.designs.paired_link import PairedLinkDesign
from repro.core.experiment import evaluate_comparisons
from repro.core.units import SESSION_METRICS
from repro.experiments.alternate_designs import compare_designs
from repro.experiments.lab_connections import run_connections_experiment
from repro.experiments.paired_link import PairedLinkExperiment
from repro.workload.netflix import PairedLinkWorkload, WorkloadConfig


@pytest.fixture(scope="module")
def small_outcome():
    config = WorkloadConfig(sessions_at_peak=120, n_accounts=1500, seed=23)
    return PairedLinkExperiment(config=config).run()


class TestEndToEnd:
    def test_lab_and_production_pipelines_compose(self, small_outcome):
        lab = run_connections_experiment()
        assert lab.tte("throughput_mbps") == pytest.approx(0.0, abs=1e-6)

        rows = small_outcome.figure5_rows()
        assert len(rows) == len(SESSION_METRICS)

        comparison = compare_designs(
            small_outcome.experiment_table,
            (0, 1, 2, 3, 4),
            small_outcome.estimates["tte"],
            baselines=small_outcome.baselines,
            metrics=("throughput_mbps", "min_rtt_ms"),
        )
        assert len(comparison.rows(["throughput_mbps", "min_rtt_ms"])) == 2

    def test_interference_diagnostics_fire_on_the_paired_link_data(self, small_outcome):
        estimates = small_outcome.estimates
        diagnostics = detect_interference(
            ate_by_allocation={
                0.05: estimates["ab_0.05"]["min_rtt_ms"].relative,
                0.95: estimates["ab_0.95"]["min_rtt_ms"].relative,
            },
            spillover_by_allocation={0.95: estimates["spillover"]["min_rtt_ms"].relative},
        )
        assert diagnostics.interference_detected

    def test_gradual_deployment_design_runs_on_workload(self):
        config = WorkloadConfig(sessions_at_peak=80, n_accounts=800, seed=31)
        workload = PairedLinkWorkload(config)
        design = GradualDeploymentDesign(ramp=(0.0, 0.5, 1.0))
        days = (0, 1, 2)
        plan = design.allocation_plan(config.links, days)
        table = workload.generate(plan, days)
        estimates = evaluate_comparisons(
            table, design.comparisons(config.links, days), metrics=("video_bitrate_kbps",)
        )
        assert "tte" in estimates
        assert estimates["tte"]["video_bitrate_kbps"].relative_percent < -20.0

    def test_paired_link_design_against_custom_links(self):
        config = WorkloadConfig(sessions_at_peak=80, n_accounts=800, seed=37)
        workload = PairedLinkWorkload(config)
        design = PairedLinkDesign(high_allocation=0.9, low_allocation=0.1)
        days = (0, 1)
        table = workload.generate(design.allocation_plan(config.links, days), days)
        estimates = evaluate_comparisons(
            table, design.comparisons(config.links, days), metrics=("video_bitrate_kbps",)
        )
        assert set(estimates) == {"tte", "spillover", "ab_0.9", "ab_0.1"}
