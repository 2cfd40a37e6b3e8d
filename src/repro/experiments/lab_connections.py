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

from repro.experiments.figures import Figure, register
from repro.experiments.lab_common import LabFigure, sweep_to_figure
from repro.netsim.fluid.application import Application
from repro.netsim.fluid.competition import CompetitionModel
from repro.netsim.fluid.lab import run_lab_sweep
from repro.netsim.fluid.link import BottleneckLink

__all__ = ["run_connections_experiment"]


def run_connections_experiment(
    n_units: int = 10,
    treatment_connections: int = 2,
    control_connections: int = 1,
    link: BottleneckLink | None = None,
    model: CompetitionModel | None = None,
    noise: float = 0.0,
    seed: int | None = 0,
) -> LabFigure:
    """Run the parallel-connections lab sweep and return the figure data.

    Parameters
    ----------
    n_units:
        Number of applications sharing the bottleneck (paper: 10).
    treatment_connections, control_connections:
        Connections opened by treated / control applications (paper: 2 / 1).
    link, model:
        Bottleneck and fluid-model parameters.
    noise, seed:
        Measurement noise level and seed.
    """
    if treatment_connections < 1 or control_connections < 1:
        raise ValueError("connection counts must be at least 1")
    sweep = run_lab_sweep(
        n_units,
        treatment_factory=lambda i: Application(
            i, cc="reno", connections=treatment_connections
        ),
        control_factory=lambda i: Application(
            i, cc="reno", connections=control_connections
        ),
        link=link,
        model=model,
        noise=noise,
        seed=seed,
    )
    return sweep_to_figure(
        sweep,
        name="fig2a_connections",
        description=(
            f"{n_units} applications using {treatment_connections} (treatment) or "
            f"{control_connections} (control) TCP Reno connections on a shared bottleneck"
        ),
    )


register(
    Figure(
        name="fig2a",
        help="parallel-connections lab figure (Figure 2a)",
        group="lab",
        knob="noise",
        seeded=True,
        cells=lambda noise, seed: run_connections_experiment(noise=noise, seed=seed).cells(),
        render=lambda args, parser, cache, tracer: run_connections_experiment().summary_lines(),
    )
)
