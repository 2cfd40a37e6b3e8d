"""Quickstart: congestion interference in a ten-flow lab experiment.

Runs the paper's parallel-connections experiment (Figure 2a) on the fluid
simulator, then shows why the naive A/B estimate is misleading:

* every A/B test says "two connections double your throughput";
* the total treatment effect says "switching everyone changes nothing,
  except retransmissions get much worse";
* the spillover says "your gain came out of everyone else's share".

Run with:  python examples/quickstart.py
"""

from repro.core.estimands import sutva_holds
from repro.experiments.lab_connections import run_connections_experiment
from repro.reporting import format_percent, format_table


def main() -> None:
    figure = run_connections_experiment()

    print("Lab sweep: 10 applications, treatment = 2 TCP connections, control = 1")
    print()
    rows = []
    for row in figure.rows:
        rows.append(
            [
                row.n_treated,
                "-"
                if row.treatment_throughput_mbps is None
                else f"{row.treatment_throughput_mbps:.0f}",
                "-"
                if row.control_throughput_mbps is None
                else f"{row.control_throughput_mbps:.0f}",
                "-" if row.treatment_retransmit is None else f"{row.treatment_retransmit:.4f}",
                "-" if row.control_retransmit is None else f"{row.control_retransmit:.4f}",
            ]
        )
    print(
        format_table(
            ["# treated", "T thr (Mb/s)", "C thr (Mb/s)", "T retx", "C retx"], rows
        )
    )
    print()

    throughput = figure.throughput_curve
    retransmit = figure.retransmit_curve
    control_throughput = throughput.mu_control(0.0)
    control_retransmit = retransmit.mu_control(0.0)

    print("What a naive 10% A/B test reports:")
    print(
        "  throughput: "
        + format_percent(throughput.ate(0.1) / control_throughput)
        + ", retransmissions: "
        + format_percent(retransmit.ate(0.1) / control_retransmit)
    )
    print("What actually happens if everyone switches (TTE):")
    print(
        "  throughput: "
        + format_percent(throughput.tte() / control_throughput)
        + ", retransmissions: "
        + format_percent(retransmit.tte() / control_retransmit)
    )
    print("Spillover on the last single-connection application (p = 0.9):")
    print("  throughput: " + format_percent(throughput.spillover(0.9) / control_throughput))
    print()
    print(f"SUTVA holds on this data: {sutva_holds(throughput, tolerance=0.01, relative=True)}")
    print("Conclusion: the A/B estimate is an artifact of congestion interference.")


if __name__ == "__main__":
    main()
