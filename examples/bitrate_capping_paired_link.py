"""Reproduce the paired-link bitrate-capping experiment (Section 4).

Generates the synthetic paired-link workload, runs the 95 % / 5 %
experiment for five days, and prints:

* the baseline link-similarity table (Section 4.1),
* the Figure 5 treatment-effect table (naive A/B vs TTE vs spillover),
* the Figure 7/8 cell means,
* the Figure 9 peak/off-peak retransmission split.

Run with:  python examples/bitrate_capping_paired_link.py
(Use --quick for a smaller, faster workload.)
"""

import argparse

from repro.core.units import SESSION_METRICS
from repro.experiments.baseline_validation import compare_links_at_baseline
from repro.experiments.paired_link import DESIGN, PairedLinkExperiment
from repro.reporting import format_table
from repro.workload.netflix import WorkloadConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="run a smaller workload (faster)"
    )
    parser.add_argument("--seed", type=int, default=7, help="workload random seed")
    args = parser.parse_args()

    sessions_at_peak = 150 if args.quick else 400
    config = WorkloadConfig(sessions_at_peak=sessions_at_peak, seed=args.seed)
    experiment = PairedLinkExperiment(config=config)
    print(f"Running paired-link experiment ({DESIGN.describe()}) ...")
    outcome = experiment.run()
    print(f"Generated {len(outcome.experiment_table)} experiment sessions.\n")

    print("Baseline week: link 1 vs link 2 (Section 4.1)")
    rows = []
    for row in compare_links_at_baseline(outcome.baseline_table):
        rows.append(
            [
                row.metric,
                f"{row.relative_percent:+.1f}%",
                "yes" if row.significant else "no",
            ]
        )
    print(format_table(["metric", "link1 vs link2", "significant"], rows))
    print()

    print("Figure 5: treatment effects of bitrate capping (percent of global control)")
    rows = []
    for row in outcome.figure5_rows():
        rows.append(
            [
                row["metric"],
                f"{row['ab_0.05']:+.1f}%",
                f"{row['ab_0.95']:+.1f}%",
                f"{row['tte']:+.1f}%",
                f"{row['spillover']:+.1f}%",
            ]
        )
    print(format_table(["metric", "A/B 5%", "A/B 95%", "TTE", "spillover"], rows))
    print()

    cells = outcome.figure7_cells()
    print("Figure 7: average throughput by cell (Mb/s)")
    print(
        format_table(
            ["cell", "throughput"],
            [
                ["link 1, capped (95%)", f"{cells.link1_treated:.2f}"],
                ["link 1, uncapped (5%)", f"{cells.link1_control:.2f}"],
                ["link 2, capped (5%)", f"{cells.link2_treated:.2f}"],
                ["link 2, uncapped (95%)", f"{cells.link2_control:.2f}"],
            ],
        )
    )
    print()

    rtt = outcome.figure8_cells()
    print("Figure 8: minimum RTT by cell (normalized to smallest)")
    print(
        format_table(
            ["cell", "min RTT"],
            [
                ["link 1, capped (95%)", f"{rtt.link1_treated:.2f}"],
                ["link 1, uncapped (5%)", f"{rtt.link1_control:.2f}"],
                ["link 2, capped (5%)", f"{rtt.link2_treated:.2f}"],
                ["link 2, uncapped (95%)", f"{rtt.link2_control:.2f}"],
            ],
        )
    )
    print()

    split = outcome.figure9_retransmit_split()
    print("Figure 9: retransmitted-byte fraction, capping vs uncapped control")
    print(f"  peak hours:     {100 * split['peak']:+.1f}%")
    print(f"  off-peak hours: {100 * split['off_peak']:+.1f}%")
    print(f"  overall TTE:    {100 * split['overall']:+.1f}%")
    print()

    flipped = [
        m
        for m in SESSION_METRICS
        if (outcome.estimate("ab_0.05", m).relative.estimate > 0)
        != (outcome.estimate("tte", m).relative.estimate > 0)
    ]
    print(f"Metrics whose direction the 5% A/B test gets wrong: {', '.join(flipped) or 'none'}")


if __name__ == "__main__":
    main()
