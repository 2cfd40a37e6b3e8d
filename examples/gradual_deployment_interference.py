"""Detect congestion interference during a gradual deployment (Section 5.1).

Simulates an engineering team ramping bitrate capping from 0 % to 100 % of
traffic over a week, computing at every stage the A/B effect, the partial
effect and the spillover, and then applying the paper's SUTVA consistency
checks.  Under interference the A/B effects disagree across stages and the
spillovers are non-zero — exactly what the diagnostics report.

Run with:  python examples/gradual_deployment_interference.py
"""

from repro.core.analysis.interference import detect_interference
from repro.core.designs.gradual_deployment import GradualDeploymentDesign
from repro.core.experiment import evaluate_comparisons
from repro.reporting import format_table
from repro.workload.netflix import PairedLinkWorkload, WorkloadConfig

METRIC = "throughput_mbps"


def main() -> None:
    config = WorkloadConfig(sessions_at_peak=250, seed=29)
    workload = PairedLinkWorkload(config)
    design = GradualDeploymentDesign(ramp=(0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0))
    days = tuple(range(len(design.ramp)))

    print(f"Deployment ramp: {design.describe()}")
    plan = design.allocation_plan(config.links, days)
    table = workload.generate(plan, days)
    estimates = evaluate_comparisons(
        table, design.comparisons(config.links, days), metrics=(METRIC,)
    )

    rows = []
    ate_by_allocation = {}
    spillover_by_allocation = {}
    partial_by_allocation = {}
    for estimand, per_metric in sorted(estimates.items()):
        estimate = per_metric[METRIC]
        rows.append([estimand, f"{estimate.relative_percent:+.1f}%"])
        if estimand.startswith("ab_"):
            ate_by_allocation[float(estimand[3:])] = estimate.relative
        elif estimand.startswith("spillover_"):
            spillover_by_allocation[float(estimand[10:])] = estimate.relative
        elif estimand.startswith("partial_"):
            partial_by_allocation[float(estimand[8:])] = estimate.relative
    print(format_table(["estimand", METRIC], rows))
    print()

    diagnostics = detect_interference(
        ate_by_allocation, spillover_by_allocation, partial_by_allocation
    )
    print(diagnostics.summary())


if __name__ == "__main__":
    main()
