"""Figure 11: throughput time series of the emulated event study.

The event study deploys 95 % bitrate capping between the second and third
experiment days.  The figure shows the hourly throughput of the traffic
the event-study analyst would observe: the pre period follows the 5 %-
capped link, the post period follows the 95 %-capped link, and peak-hour
throughput visibly improves after the switch.
"""

import numpy as np
from benchmarks._helpers import EXPERIMENT_DAYS, run_once

from repro.core.designs.event_study import EventStudyDesign
from repro.experiments.alternate_designs import emulate_event_study


def _event_study_series(outcome, switch_day=2):
    """Hourly observed throughput under the event-study emulation."""
    table = outcome.experiment_table
    series: dict[int, dict[int, float]] = {}
    for day in EXPERIMENT_DAYS:
        if day < switch_day:
            subset = table.where(day=day, link=2, treated=0)
        else:
            subset = table.where(day=day, link=1, treated=1)
        series[day] = {int(h): v for h, v in subset.groupby_mean("hour", "throughput_mbps").items()}
    return series


def test_fig11_event_study_series(benchmark, paired_outcome):
    series = run_once(benchmark, _event_study_series, paired_outcome)

    peak_hours = range(19, 22)
    pre_peak = np.mean([series[d][h] for d in (0, 1) for h in peak_hours])
    post_peak = np.mean([series[d][h] for d in (2, 3, 4) for h in peak_hours])
    print(f"\npre-switch peak throughput:  {pre_peak:.2f} Mb/s")
    print(f"post-switch peak throughput: {post_peak:.2f} Mb/s")

    # After deploying 95 % capping, peak-hour throughput improves.
    assert post_peak > pre_peak

    # And the event-study estimator sees a positive throughput effect —
    # though (as the paper notes) it is biased relative to the paired link.
    estimates = emulate_event_study(
        paired_outcome.experiment_table,
        EXPERIMENT_DAYS,
        design=EventStudyDesign(switch_day=2),
        metrics=("throughput_mbps",),
        baselines=paired_outcome.baselines,
    )
    print(f"event-study throughput TTE: {estimates['throughput_mbps'].relative_percent:+.1f}%")
    assert estimates["throughput_mbps"].relative.estimate != 0.0
