"""Figure 3: Cubic vs BBR A/B tests.

Paper finding: a 10 % BBR allocation looks like a huge throughput win over
Cubic, and a 10 % Cubic allocation (into a BBR world) *also* looks like a
huge win — yet a full deployment of either algorithm yields identical
per-flow throughput.
"""

import pytest
from benchmarks._helpers import run_once

from repro.experiments.lab_cc import run_cc_experiment


def test_fig3_bbr_vs_cubic(benchmark):
    figure = run_once(benchmark, run_cc_experiment, treatment_cc="bbr", control_cc="cubic")

    print("\n" + "\n".join(figure.summary_lines()))

    throughput = figure.throughput_curve
    # Minority BBR wins big.
    assert throughput.ate(0.1) / throughput.mu_control(0.1) > 1.0
    # TTE is zero: all-BBR equals all-Cubic.
    assert throughput.tte() == pytest.approx(0.0, abs=1e-6)
    # Negative spillover on Cubic while BBR is the aggressive minority (the
    # classic BBR-unfairness regime: a few BBR flows squeeze many Cubic flows).
    assert throughput.spillover(0.1) < 0.0


def test_fig3_cubic_into_bbr_world(benchmark):
    figure = run_once(benchmark, run_cc_experiment, treatment_cc="cubic", control_cc="bbr")
    throughput = figure.throughput_curve
    # Minority Cubic also wins big, and the TTE is still zero.
    assert throughput.ate(0.1) / throughput.mu_control(0.1) > 1.0
    assert throughput.tte() == pytest.approx(0.0, abs=1e-6)
    print(
        f"\nDeploying Cubic at 10% into a BBR world: "
        f"{100 * throughput.ate(0.1) / throughput.mu_control(0.1):+.0f}% "
        f"naive 'improvement', TTE = 0"
    )
