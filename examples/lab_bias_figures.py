"""Reproduce the three lab-bias figures (Figures 2a, 2b and 3).

For each lab experiment — parallel connections, pacing, Cubic vs BBR —
prints the per-allocation treatment/control means and the derived
estimands, and says what a naive experimenter would have (wrongly)
concluded.

Run with:  python examples/lab_bias_figures.py
"""

from repro.experiments.lab_cc import run_cc_experiment
from repro.experiments.lab_connections import run_connections_experiment
from repro.experiments.lab_pacing import run_pacing_experiment
from repro.reporting import format_percent


def describe(figure, allocation=0.1) -> None:
    print("=" * 78)
    for line in figure.summary_lines():
        print(line)
    throughput = figure.throughput_curve
    control = throughput.mu_control(0.0)
    ab = throughput.ate(allocation) / control
    tte = throughput.tte() / control
    print(
        f"Naive A/B throughput estimate at p={allocation:g}: {format_percent(ab)}; "
        f"TTE: {format_percent(tte)}; bias: {format_percent(ab - tte)}"
    )
    print()


def main() -> None:
    print("Figure 2a: multiple parallel connections")
    describe(run_connections_experiment())

    print("Figure 2b: pacing")
    figure = run_pacing_experiment()
    describe(figure)
    retransmit = figure.retransmit_curve
    print(
        "Pacing retransmission TTE: "
        + format_percent(retransmit.tte() / retransmit.mu_control(0.0))
        + " (invisible to every A/B test)"
    )
    print()

    print("Figure 3: Cubic vs BBR")
    bbr = run_cc_experiment(treatment_cc="bbr", control_cc="cubic")
    cubic = run_cc_experiment(treatment_cc="cubic", control_cc="bbr")
    describe(bbr)
    print(
        "Deploying BBR at 10%: "
        + format_percent(
            bbr.throughput_curve.ate(0.1) / bbr.throughput_curve.mu_control(0.1)
        )
        + " throughput vs Cubic"
    )
    print(
        "Deploying Cubic at 10% (into a BBR world): "
        + format_percent(
            cubic.throughput_curve.ate(0.1) / cubic.throughput_curve.mu_control(0.1)
        )
        + " throughput vs BBR"
    )
    print("Both look like huge wins; both TTEs are zero.")


if __name__ == "__main__":
    main()
