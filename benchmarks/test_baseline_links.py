"""Section 4.1 baseline table: statistical similarity of the two links.

Paper finding: during the baseline week the links look very similar —
link 1 has ~5 % more bytes, ~2 % higher stability, ~0.1 % lower perceptual
quality and ~20 % more rebuffers; the network metrics (throughput, RTT,
bitrate, retransmissions) show no meaningful difference.
"""

from benchmarks._helpers import run_once

from repro.experiments.baseline_validation import compare_links_at_baseline
from repro.reporting import format_table


def test_baseline_link_similarity(benchmark, paired_outcome):
    rows = run_once(benchmark, compare_links_at_baseline, paired_outcome.baseline_table)
    by_metric = {row.metric: row for row in rows}

    print(
        "\n"
        + format_table(
            ["metric", "link1 vs link2", "significant"],
            [
                [r.metric, f"{r.relative_percent:+.1f}%", "yes" if r.significant else "no"]
                for r in rows
            ],
        )
    )

    # The engineered pre-existing differences are recovered...
    assert 10.0 < by_metric["rebuffer_rate"].relative_percent < 32.0
    assert 1.0 < by_metric["bytes_sent_gb"].relative_percent < 10.0
    # ...and the network metrics are similar across links.
    for metric in ("throughput_mbps", "min_rtt_ms", "video_bitrate_kbps", "retransmit_fraction"):
        assert abs(by_metric[metric].relative_percent) < 6.0, metric
