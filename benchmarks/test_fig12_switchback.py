"""Figure 12: throughput time series of the emulated switchback experiment.

95 % of traffic is capped on the first, third and fifth days.  Because the
observed traffic alternates between the two regimes, the clear throughput
difference of the paired-link time series (Figure 6) is much harder to see
by eye — which is exactly why the statistical analysis matters.  The
switchback estimator still recovers the paired-link TTE.
"""

import numpy as np
from benchmarks._helpers import EXPERIMENT_DAYS, run_once

from repro.core.designs.switchback import SwitchbackDesign
from repro.experiments.alternate_designs import emulate_switchback

TREATMENT_DAYS = (0, 2, 4)


def _switchback_series(outcome):
    """Hourly observed throughput under the switchback emulation."""
    table = outcome.experiment_table
    series: dict[int, dict[int, float]] = {}
    for day in EXPERIMENT_DAYS:
        if day in TREATMENT_DAYS:
            subset = table.where(day=day, link=1, treated=1)
        else:
            subset = table.where(day=day, link=2, treated=0)
        series[day] = {int(h): v for h, v in subset.groupby_mean("hour", "throughput_mbps").items()}
    return series


def test_fig12_switchback_series(benchmark, paired_outcome):
    series = run_once(benchmark, _switchback_series, paired_outcome)

    peak_hours = range(19, 22)
    treated_peak = np.mean([series[d][h] for d in TREATMENT_DAYS for h in peak_hours])
    control_peak = np.mean(
        [series[d][h] for d in EXPERIMENT_DAYS if d not in TREATMENT_DAYS for h in peak_hours]
    )
    print(f"\ntreatment-day peak throughput: {treated_peak:.2f} Mb/s")
    print(f"control-day peak throughput:   {control_peak:.2f} Mb/s")
    assert treated_peak > control_peak

    estimates = emulate_switchback(
        paired_outcome.experiment_table,
        EXPERIMENT_DAYS,
        design=SwitchbackDesign(treatment_days=TREATMENT_DAYS),
        metrics=("throughput_mbps", "min_rtt_ms"),
        baselines=paired_outcome.baselines,
    )
    print(f"switchback throughput TTE: {estimates['throughput_mbps'].relative_percent:+.1f}%")
    print(f"switchback min-RTT TTE:    {estimates['min_rtt_ms'].relative_percent:+.1f}%")

    paired_throughput = paired_outcome.estimates["tte"]["throughput_mbps"].relative.estimate
    paired_rtt = paired_outcome.estimates["tte"]["min_rtt_ms"].relative.estimate
    assert estimates["throughput_mbps"].relative.covers(paired_throughput)
    assert estimates["min_rtt_ms"].relative.covers(paired_rtt)
