"""Figure 3 — lab experiment comparing congestion control algorithms.

Ten long-lived connections share a 10 Gb/s bottleneck; some fraction run
BBR (treatment) and the rest Cubic (control).  The paper's striking result
reproduced here: at a 10 % allocation, *either* algorithm looks like a
huge throughput improvement over the other, even though a full deployment
of either yields identical per-flow throughput (TTE = 0).  The asymmetric
competition between BBR and loss-based traffic makes whichever algorithm
is in the minority look good.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.figures import Figure
from repro.experiments.lab_common import CELL_ALLOCATIONS, LAB_UNITS, LabFigure, sweep_to_figure
from repro.netsim.fluid.application import Application
from repro.netsim.fluid.lab import run_lab_sweep

__all__ = ["run_cc_experiment"]


def run_cc_experiment(
    *,
    treatment_cc: str = "bbr",
    control_cc: str = "cubic",
    noise: float = 0.0,
    seed: int | None = 0,
    allocations: Sequence[int] | None = None,
) -> LabFigure:
    """Run the congestion-control lab sweep and return the figure data.

    Parameters
    ----------
    treatment_cc, control_cc:
        Algorithms used by treated / control connections (paper: BBR vs
        Cubic).  Swapping them answers "what if we were deploying Cubic
        into a BBR world" — both directions show a large, misleading A/B
        improvement.
    allocations:
        The treated counts to run (default: all eleven).
    """
    sweep = run_lab_sweep(
        LAB_UNITS,
        treatment_factory=lambda i: Application(i, cc=treatment_cc),
        control_factory=lambda i: Application(i, cc=control_cc),
        noise=noise,
        seed=seed,
        allocations=allocations,
    )
    return sweep_to_figure(
        sweep,
        name="fig3_congestion_control",
        description=(
            f"{LAB_UNITS} long-lived connections, {treatment_cc} (treatment) vs "
            f"{control_cc} (control), sharing a bottleneck"
        ),
    )


FIGURES = (
    Figure(
        name="fig3",
        help="Cubic-vs-BBR lab figure (Figure 3)",
        group="lab",
        knob="noise",
        seeded=True,
        cells=lambda noise, seed: run_cc_experiment(
            noise=noise, seed=seed, allocations=CELL_ALLOCATIONS
        ).cells(),
        render=lambda args, parser, executor: run_cc_experiment().summary_lines(),
    ),
)
