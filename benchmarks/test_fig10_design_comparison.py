"""Figure 10: TTE as estimated by the paired link, a switchback, and an event study.

Paper finding: the switchback's estimates track the paired-link TTE (its
confidence intervals cover it, though they are wider because it uses half
the data); the event study is reasonable for most metrics but biased for
some (throughput, cancelled starts, retransmitted bytes) because the
post-deployment period lands on the weekend.
"""

from benchmarks._helpers import EXPERIMENT_DAYS, run_once

from repro.experiments.alternate_designs import compare_designs
from repro.reporting import format_table

METRICS = (
    "throughput_mbps",
    "min_rtt_ms",
    "play_delay_s",
    "video_bitrate_kbps",
    "rebuffer_rate",
    "retransmit_fraction",
)


def test_fig10_design_comparison(benchmark, paired_outcome):
    comparison = run_once(
        benchmark,
        compare_designs,
        paired_outcome.experiment_table,
        EXPERIMENT_DAYS,
        paired_outcome.estimates["tte"],
        baselines=paired_outcome.baselines,
        metrics=METRICS,
    )

    rows = comparison.rows(METRICS)
    print(
        "\n"
        + format_table(
            ["metric", "paired link", "switchback", "event study"],
            [
                [
                    row["metric"],
                    f"{row['paired_link']:+.1f}%",
                    f"{row['switchback']:+.1f}%",
                    f"{row['event_study']:+.1f}%",
                ]
                for row in rows
            ],
        )
    )

    # The switchback recovers the paired-link TTE for the key metrics.
    for metric in ("min_rtt_ms", "video_bitrate_kbps", "play_delay_s"):
        assert comparison.switchback_covers_paired_link(metric), metric

    # Its direction always matches.
    for metric in METRICS:
        switchback = comparison.switchback[metric].relative.estimate
        paired = comparison.paired_link[metric].relative.estimate
        assert (switchback > 0) == (paired > 0), metric

    # The switchback uses half the data, so its intervals are not tighter.
    for metric in METRICS:
        assert (
            comparison.switchback[metric].relative.width
            >= 0.8 * comparison.paired_link[metric].relative.width
        ), metric
