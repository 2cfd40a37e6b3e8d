"""Tests for the gradual-deployment harness (Section 5.1)."""

import pytest

from repro.core.designs.gradual_deployment import GradualDeploymentDesign
from repro.experiments.gradual_deployment import run_gradual_deployment
from repro.workload.netflix import WorkloadConfig


@pytest.fixture(scope="module")
def outcome():
    config = WorkloadConfig(sessions_at_peak=150, n_accounts=1500, seed=41)
    design = GradualDeploymentDesign(ramp=(0.0, 0.05, 0.5, 0.95, 1.0))
    return run_gradual_deployment(config=config, design=design, metric="throughput_mbps")


class TestGradualDeployment:
    def test_stage_estimates_present(self, outcome):
        assert set(outcome.ab_effects) == {0.05, 0.5, 0.95}
        assert set(outcome.spillovers) == {0.05, 0.5, 0.95}
        assert set(outcome.partial_effects) == {0.05, 0.5, 0.95, 1.0}
        assert outcome.tte is not None

    def test_spillover_grows_with_allocation(self, outcome):
        spill = {p: e.relative.estimate for p, e in outcome.spillovers.items()}
        assert spill[0.95] > spill[0.05]

    def test_full_deployment_tte_positive_for_throughput(self, outcome):
        assert outcome.tte.relative_percent > 0.0

    def test_interference_detected_with_a_powered_ramp(self):
        """A ramp that holds each end-stage for several days has enough power
        for the SUTVA checks to flag the (large) minimum-RTT spillover."""
        config = WorkloadConfig(sessions_at_peak=150, n_accounts=1500, seed=47)
        design = GradualDeploymentDesign(ramp=(0.0, 0.0, 0.0, 0.95, 0.95, 0.95))
        powered = run_gradual_deployment(
            config=config, design=design, metric="min_rtt_ms"
        )
        diagnostics = powered.diagnostics()
        assert diagnostics.interference_detected
        assert diagnostics.nonzero_spillovers  # capping empties the queue for everyone

    def test_estimates_match_golden(self, outcome, assert_estimates_golden):
        assert_estimates_golden("gradual_deployment", outcome.estimates)

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            run_gradual_deployment(metric="nope")

    def test_bitrate_deployment_shows_consistent_ab_effects(self):
        """For the bitrate metric the effect is mostly direct (the cap), so the
        per-stage A/B estimates should all be strongly negative."""
        config = WorkloadConfig(sessions_at_peak=120, n_accounts=1200, seed=43)
        design = GradualDeploymentDesign(ramp=(0.0, 0.25, 0.75, 1.0))
        outcome = run_gradual_deployment(
            config=config, design=design, metric="video_bitrate_kbps"
        )
        for estimate in outcome.ab_effects.values():
            assert estimate.relative_percent < -20.0
        assert outcome.tte.relative_percent < -20.0
