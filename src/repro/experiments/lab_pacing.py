"""Figure 2b — lab experiment with TCP pacing.

Ten single-connection Reno applications share a 10 Gb/s bottleneck.
Treated applications pace their packets (Linux ``fq``-style); control
applications send ack-clocked bursts.  The paper's findings reproduced
here:

* In every A/B test the paced group obtains roughly 50 % lower throughput
  than the unpaced group and a similar retransmission rate — a naive
  experimenter would abandon pacing.
* The total treatment effect is zero for throughput and a large *decrease*
  in retransmissions.
* Spillover is positive: pacing improves the unpaced traffic it shares the
  link with.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.figures import Figure
from repro.experiments.lab_common import CELL_ALLOCATIONS, LAB_UNITS, LabFigure, sweep_to_figure
from repro.netsim.fluid.application import Application
from repro.netsim.fluid.lab import run_lab_sweep

__all__ = ["run_pacing_experiment"]


def run_pacing_experiment(
    *,
    noise: float = 0.0,
    seed: int | None = 0,
    allocations: Sequence[int] | None = None,
) -> LabFigure:
    """Run the pacing lab sweep at ``allocations`` (default: all eleven)."""
    sweep = run_lab_sweep(
        LAB_UNITS,
        treatment_factory=lambda i: Application(i, cc="reno", paced=True),
        control_factory=lambda i: Application(i, cc="reno", paced=False),
        noise=noise,
        seed=seed,
        allocations=allocations,
    )
    return sweep_to_figure(
        sweep,
        name="fig2b_pacing",
        description=(
            f"{LAB_UNITS} TCP Reno connections, paced (treatment) vs unpaced (control), "
            "sharing a bottleneck"
        ),
    )


FIGURES = (
    Figure(
        name="fig2b",
        help="pacing lab figure (Figure 2b)",
        group="lab",
        knob="noise",
        seeded=True,
        cells=lambda noise, seed: run_pacing_experiment(
            noise=noise, seed=seed, allocations=CELL_ALLOCATIONS
        ).cells(),
        render=lambda args, parser, executor: run_pacing_experiment().summary_lines(),
    ),
)
