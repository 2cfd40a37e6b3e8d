"""Figure 2b: pacing vs no pacing.

Paper finding: paced traffic obtains ~50 % lower throughput than unpaced
traffic in any A/B test with essentially no within-test retransmission
difference, yet a full deployment of pacing leaves throughput unchanged
and cuts retransmissions substantially; spillover on unpaced traffic is
positive.
"""

import pytest
from benchmarks._helpers import run_once

from repro.experiments.lab_pacing import run_pacing_experiment


def test_fig2b_pacing(benchmark):
    figure = run_once(benchmark, run_pacing_experiment)

    print("\n" + "\n".join(figure.summary_lines()))

    throughput = figure.throughput_curve
    retransmit = figure.retransmit_curve

    for p in (0.1, 0.5, 0.9):
        ratio = throughput.mu_treatment(p) / throughput.mu_control(p)
        assert ratio == pytest.approx(0.5, rel=0.05)
        assert retransmit.ate(p) == pytest.approx(0.0, abs=1e-9)

    assert throughput.tte() == pytest.approx(0.0, abs=1e-6)
    assert retransmit.tte() / retransmit.mu_control(0.0) < -0.5
    assert throughput.spillover(0.9) > 0.0
    assert retransmit.spillover(0.9) < 0.0
