"""Evaluate alternate experiment designs (Section 5).

Uses one paired-link run as ground truth, then emulates what an
experimenter would have measured with

* a switchback experiment (alternating 95 %-capped and 5 %-capped days),
* an event study (deploying 95 % capping mid-week),

and calibrates both against an A/A week.  Finishes with a power
calculation for sizing a future switchback.

Run with:  python examples/switchback_vs_event_study.py
"""

import numpy as np

from repro.core.analysis.aggregation import aggregate_hourly
from repro.core.analysis.power import required_sample_size
from repro.experiments.alternate_designs import compare_designs, run_aa_calibration
from repro.experiments.paired_link import PairedLinkExperiment
from repro.reporting import format_table
from repro.workload.netflix import WorkloadConfig

METRICS = (
    "throughput_mbps",
    "min_rtt_ms",
    "play_delay_s",
    "video_bitrate_kbps",
    "retransmit_fraction",
)


def main() -> None:
    config = WorkloadConfig(sessions_at_peak=250, seed=19)
    outcome = PairedLinkExperiment(config=config).run()
    days = (0, 1, 2, 3, 4)

    comparison = compare_designs(
        outcome.experiment_table,
        days,
        outcome.estimates["tte"],
        baselines=outcome.baselines,
        metrics=METRICS,
    )

    print("Figure 10: TTE estimated by each design (percent of global control)")
    rows = []
    for row in comparison.rows(METRICS):
        rows.append(
            [
                row["metric"],
                f"{row['paired_link']:+.1f}%",
                f"{row['switchback']:+.1f}%",
                f"{row['event_study']:+.1f}%",
            ]
        )
    print(format_table(["metric", "paired link", "switchback", "event study"], rows))
    print()

    covered = [m for m in METRICS if comparison.switchback_covers_paired_link(m)]
    print(f"Switchback CI covers the paired-link TTE for: {', '.join(covered)}")
    print()

    print("A/A calibration (no capping anywhere; any 'effect' is a false positive)")
    rows = []
    splits = (("switchback split", (0, 2, 4)), ("event-study split", (2, 3, 4)))
    for label, treatment_days in splits:
        estimates = run_aa_calibration(
            outcome.aa_table, days, treatment_days=treatment_days, metrics=METRICS
        )
        false_positives = [m for m, e in estimates.items() if e.relative.significant]
        rows.append([label, len(false_positives), ", ".join(false_positives) or "-"])
    print(format_table(["day split", "# false positives", "metrics"], rows))
    print()

    # Power calculation: how many switchback days would we need to detect the
    # throughput TTE we just measured, treating each day as one observation?
    tte = outcome.estimates["tte"]["throughput_mbps"].absolute.estimate
    hourly = aggregate_hourly(
        outcome.experiment_table.where(link=2, treated=0), "throughput_mbps"
    )
    daily_std = float(np.std([hourly.value[hourly.time_index // 24 == d].mean() for d in days]))
    days_needed = 2 * required_sample_size(abs(tte), max(daily_std, 1e-6), power=0.8)
    print(
        f"Power check: detecting a {tte:+.2f} Mb/s TTE with day-level noise "
        f"{daily_std:.2f} Mb/s needs roughly {days_needed} switchback days."
    )


if __name__ == "__main__":
    main()
