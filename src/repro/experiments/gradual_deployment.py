"""Gradual-deployment event study harness (Section 5.1).

Runs a staged deployment of bitrate capping on the synthetic workload —
one allocation stage per day — and measures, at every stage, the A/B
effect, the partial treatment effect and the spillover, finishing with the
TTE once the ramp reaches 100 %.  The SUTVA consistency checks of
:mod:`repro.core.analysis.interference` are then applied to the per-stage
estimates, turning an ordinary deployment ramp into an interference
detector, exactly as the paper proposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.analysis.interference import InterferenceDiagnostics, detect_interference
from repro.core.analysis.pipeline import AnalysisConfig, MetricEstimate
from repro.core.designs.gradual_deployment import GradualDeploymentDesign
from repro.core.experiment import evaluate_comparisons
from repro.core.units import SESSION_METRICS, OutcomeTable
from repro.workload.netflix import PairedLinkWorkload, WorkloadConfig

__all__ = ["GradualDeploymentOutcome", "run_gradual_deployment"]


@dataclass
class GradualDeploymentOutcome:
    """Per-stage estimates and interference diagnostics for one metric."""

    design: GradualDeploymentDesign
    metric: str
    table: OutcomeTable
    estimates: dict[str, MetricEstimate]

    def _by_prefix(self, prefix: str) -> dict[float, MetricEstimate]:
        out: dict[float, MetricEstimate] = {}
        for estimand, estimate in self.estimates.items():
            if estimand.startswith(prefix):
                out[float(estimand[len(prefix):])] = estimate
        return out

    @property
    def ab_effects(self) -> dict[float, MetricEstimate]:
        """A/B effect at each interior allocation stage."""
        return self._by_prefix("ab_")

    @property
    def spillovers(self) -> dict[float, MetricEstimate]:
        """Spillover at each allocation stage (vs the all-control stage)."""
        return self._by_prefix("spillover_")

    @property
    def partial_effects(self) -> dict[float, MetricEstimate]:
        """Partial effect at each allocation stage (vs the all-control stage)."""
        return self._by_prefix("partial_")

    @property
    def tte(self) -> MetricEstimate | None:
        """The TTE once the ramp reached 100 %, if it did."""
        return self.estimates.get("tte")

    def diagnostics(self) -> InterferenceDiagnostics:
        """Apply the SUTVA consistency checks to the per-stage estimates."""
        return detect_interference(
            {p: e.relative for p, e in self.ab_effects.items()},
            {p: e.relative for p, e in self.spillovers.items()},
            {p: e.relative for p, e in self.partial_effects.items()},
        )


def run_gradual_deployment(
    config: WorkloadConfig | None = None,
    design: GradualDeploymentDesign | None = None,
    metric: str = "throughput_mbps",
    analysis: AnalysisConfig | None = None,
) -> GradualDeploymentOutcome:
    """Run a gradual deployment of bitrate capping and analyze every stage.

    Parameters
    ----------
    config:
        Workload configuration (defaults to the standard paired-link
        workload; both links ramp together, as a real deployment would).
    design:
        The allocation ramp (defaults to
        :data:`repro.core.designs.gradual_deployment.DEFAULT_RAMP`).
    metric:
        The outcome metric to analyze (one of
        :data:`repro.core.units.SESSION_METRICS`).
    analysis:
        Statistical analysis configuration.
    """
    if metric not in SESSION_METRICS:
        raise KeyError(f"unknown metric {metric!r}; expected one of {SESSION_METRICS}")
    config = config or WorkloadConfig()
    design = design or GradualDeploymentDesign()
    workload = PairedLinkWorkload(config)
    days: Sequence[int] = tuple(range(len(design.ramp)))

    plan = design.allocation_plan(config.links, days)
    table = workload.generate(plan, days)
    estimates = evaluate_comparisons(
        table, design.comparisons(config.links, days), metrics=(metric,), config=analysis
    )

    flattened = {estimand: per_metric[metric] for estimand, per_metric in estimates.items()}
    return GradualDeploymentOutcome(
        design=design, metric=metric, table=table, estimates=flattened
    )
