"""Figure 2a: throughput and retransmissions vs number of treated applications.

Paper finding: applications using two connections see ~100 % higher
throughput than applications using one in *every* A/B test, with no
within-test retransmission difference; yet the TTE on throughput is zero
and the TTE on retransmitted bytes is a large increase.
"""

import pytest
from benchmarks._helpers import run_once

from repro.experiments.lab_connections import run_connections_experiment


def test_fig2a_parallel_connections(benchmark):
    figure = run_once(benchmark, run_connections_experiment)

    print("\n" + "\n".join(figure.summary_lines()))

    throughput = figure.throughput_curve
    retransmit = figure.retransmit_curve
    control_thr = throughput.mu_control(0.0)
    control_rtx = retransmit.mu_control(0.0)

    # Every interior A/B test reports roughly +100 % throughput for treatment.
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert throughput.ate(p) / throughput.mu_control(p) == pytest.approx(1.0, rel=0.05)
        assert retransmit.ate(p) == pytest.approx(0.0, abs=1e-9)

    # TTE: no throughput change, large retransmission increase.
    assert throughput.tte() / control_thr == pytest.approx(0.0, abs=1e-6)
    assert retransmit.tte() / control_rtx > 1.0

    # Spillover: the remaining single-connection application loses throughput.
    assert throughput.spillover(0.9) / control_thr < -0.2
