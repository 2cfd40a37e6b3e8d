"""Figure 2a — lab experiment with multiple parallel connections.

Ten applications share a 10 Gb/s bottleneck.  Control applications open a
single TCP Reno connection; treated applications open two.  Sweeping the
number of treated applications from 0 to 10 reproduces the eleven lab
tests of the paper's Section 3.1:

* At every interior allocation the treated group sees roughly 100 % higher
  throughput and the same retransmission rate as control (the naive A/B
  conclusion: "always use two connections").
* The total treatment effect is zero for throughput (the link's capacity
  does not change) and strongly positive for retransmitted bytes.
* Spillover on the remaining single-connection applications is a large
  throughput decrease.
"""

from __future__ import annotations

from repro.experiments.figures import Figure
from repro.experiments.lab_common import (
    CONTROL_CONNECTIONS,
    LAB_UNITS,
    TREATMENT_CONNECTIONS,
    LabFigure,
    sweep_to_figure,
)
from repro.netsim.fluid.application import Application
from repro.netsim.fluid.lab import run_lab_sweep

__all__ = ["run_connections_experiment"]


def run_connections_experiment(*, noise: float = 0.0, seed: int | None = 0) -> LabFigure:
    """Run the parallel-connections lab sweep and return the figure data.

    Parameters
    ----------
    noise, seed:
        Measurement noise level and seed.
    """
    sweep = run_lab_sweep(
        LAB_UNITS,
        treatment_factory=lambda i: Application(i, cc="reno", connections=TREATMENT_CONNECTIONS),
        control_factory=lambda i: Application(i, cc="reno", connections=CONTROL_CONNECTIONS),
        noise=noise,
        seed=seed,
    )
    return sweep_to_figure(
        sweep,
        name="fig2a_connections",
        description=(
            f"{LAB_UNITS} applications using {TREATMENT_CONNECTIONS} (treatment) or "
            f"{CONTROL_CONNECTIONS} (control) TCP Reno connections on a shared bottleneck"
        ),
    )


FIGURES = (
    Figure(
        name="fig2a",
        help="parallel-connections lab figure (Figure 2a)",
        group="lab",
        knob="noise",
        seeded=True,
        cells=lambda noise, seed: run_connections_experiment(noise=noise, seed=seed).cells(),
        render=lambda args, parser, executor: run_connections_experiment().summary_lines(),
    ),
)
