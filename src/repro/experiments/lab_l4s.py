"""L4S experiments: does signal-based sharing collapse the A/B bias?

The repo has confirmed the paper's scheduling-based prediction: per-unit
FQ-CoDel eliminates the connection-count A/B bias (PR 3).  L4S poses the
complementary falsifiable question for *signal-based* sharing: a
dual-queue coupled AQM (:class:`~repro.netsim.packet.queue.DualPI2Queue`,
RFC 9332) marks L4S traffic at a shallow sojourn threshold and the
DCTCP/Prague sender responds with a cut proportional to the marked
fraction (``FlowConfig(ecn="l4s")``) — fine-grained signalling and a
smooth response instead of per-flow scheduling.  Does that collapse the
bias the way FQ did?

:func:`run_l4s_experiment` answers it by running the paper's Figure 2a
treatment (opening a second TCP connection) under four arms:

* ``droptail`` — the paper's baseline: loss-based Reno on a drop-tail
  bottleneck;
* ``codel-classic`` — classic RFC 3168 ECN on CoDel: marks instead of
  drops, one window-halving per RTT;
* ``dualpi2-l4s`` — the full L4S stack: DualPI2 bottleneck, paced
  senders (Prague mandates pacing), DCTCP fraction-based response;
* ``fq_codel`` — the scheduling-based reference that eliminates the
  bias.

The measured answer: **no** — shallow marking with a proportional
response trims the bias slightly below the classic-ECN arm's (the smooth
response tracks the fair share without the sawtooth overshoot that
favours multi-connection units), but per-connection fairness is baked
into any signal-based mechanism: every connection sees the same marks,
so a unit opening a second connection still buys close to a second
share.  Only scheduling that pins *units* to queues (FQ) removes the
incentive.  A coexistence arm (classic and L4S units mixed on one
DualPI2 bottleneck) additionally reports the classic-vs-L4S throughput
ratio the coupling law is designed to keep near one.

Everything runs through the one
:class:`~repro.runner.executor.ParallelExecutor` it is passed, so
results are deterministic for a fixed seed and bit-identical for any
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.figures import Figure
from repro.experiments.lab_common import (
    BiasComparison,
    LabFigure,
    sweep_connection_treatment,
    sweep_scale,
    sweep_to_figure,
)
from repro.netsim.packet.simulation import FlowConfig
from repro.netsim.packet.sweep import run_packet_sweep
from repro.runner.executor import ParallelExecutor

__all__ = ["L4S_ARMS", "L4sBiasComparison", "run_l4s_experiment"]

#: The four arms of the L4S lab: (arm name, queue discipline, the
#: ``FlowConfig.ecn`` mode of every unit, whether units pace).  The L4S
#: arm paces because TCP Prague mandates pacing; the others keep the
#: paper's unpaced default so each arm is its stack's natural form.
L4S_ARMS: tuple[tuple[str, str, bool | str, bool], ...] = (
    ("droptail", "droptail", False, False),
    ("codel-classic", "codel", "classic", False),
    ("dualpi2-l4s", "dualpi2", "l4s", True),
    ("fq_codel", "fq_codel", False, False),
)


@dataclass
class L4sBiasComparison(BiasComparison):
    """The connection-count sweep under the four L4S-lab arms.

    ``figures[arm]`` is the :class:`LabFigure` obtained under that arm;
    :meth:`bias` reduces each to how far the naive A/B estimate sits
    from the true total treatment effect.  The coexistence fields hold
    the mixed classic+L4S run on the DualPI2 bottleneck: mean per-unit
    throughput of each camp, whose ratio the RFC 9332 coupling law is
    designed to keep near one.
    """

    coexistence_l4s_mbps: float
    coexistence_classic_mbps: float

    label_width = 14

    def arms(self) -> tuple[str, ...]:
        """Arm names in sweep order."""
        return tuple(self.figures)

    @property
    def coexistence_ratio(self) -> float:
        """Mean L4S-unit throughput over mean classic-unit throughput."""
        return self.coexistence_l4s_mbps / self.coexistence_classic_mbps

    def notes(self) -> list[str]:
        """The classic/L4S coexistence report."""
        return [
            "classic/L4S coexistence on one DualPI2 bottleneck (mean per-unit throughput):",
            f"  l4s {self.coexistence_l4s_mbps:.2f} Mb/s vs classic "
            f"{self.coexistence_classic_mbps:.2f} Mb/s "
            f"(ratio {self.coexistence_ratio:.2f})",
        ]

    def cells(self) -> dict[str, float]:
        """Scalar cells: per-arm bias plus the coexistence ratio."""
        return {**super().cells(), "coexistence_ratio": self.coexistence_ratio}


def run_l4s_experiment(
    *, quick: bool = False, executor: ParallelExecutor | None = None, seed: int = 0
) -> L4sBiasComparison:
    """The parallel-connections bias under the four L4S-lab arms.

    Each arm re-runs the full allocation sweep with its own bottleneck
    discipline and sender stack (see :data:`L4S_ARMS`); a fifth run
    mixes classic-ECN and L4S units half/half on one DualPI2 bottleneck
    at the 50 % allocation and reports their throughput ratio — the
    coexistence question RFC 9332's coupling law answers.

    Parameters
    ----------
    quick:
        Shrink the sweep (fewer units, shorter runs) for smoke tests.
    executor:
        Runs the arms of *all* disciplines (default: a serial, uncached
        one).
    seed:
        Seed of the DualPI2 drop/mark lotteries (inert for the
        deterministic drop-tail/CoDel/FQ-CoDel arms, mirroring the
        inert-knob rule).
    """
    figures: dict[str, LabFigure] = {}
    for arm, discipline, ecn, paced in L4S_ARMS:
        sweep, units = sweep_connection_treatment(
            quick,
            ecn=ecn,
            paced=paced,
            queue_discipline=discipline,
            seed=seed,
            executor=executor,
        )
        ecn_label = "no ECN" if ecn is False else f"ecn={ecn}"
        figures[arm] = sweep_to_figure(
            sweep,
            name=f"topo_l4s[{arm}]",
            description=(
                f"{units} ({ecn_label}{', paced' if paced else ''}) on a "
                f"shared {discipline} bottleneck"
            ),
        )

    # Coexistence: half the units classic ECN, half L4S, one DualPI2
    # bottleneck, one connection each — the sweep machinery's 50 %
    # "allocation" doubles as the classic/L4S split, reusing its
    # executor fan-out and cache keys.
    scale = sweep_scale(quick)
    half = scale["n_units"] // 2
    scale["allocations"] = (half,)  # one mixed run, not a sweep
    coexistence = run_packet_sweep(
        treatment_factory=lambda i: FlowConfig(i, cc="reno", ecn="l4s", paced=True),
        control_factory=lambda i: FlowConfig(i, cc="reno", ecn="classic"),
        queue_discipline="dualpi2",
        seed=seed,
        executor=executor,
        **scale,
    )
    mixed = coexistence.results[half]
    return L4sBiasComparison(
        figures=figures,
        coexistence_l4s_mbps=mixed.group_mean_throughput(True),
        coexistence_classic_mbps=mixed.group_mean_throughput(False),
    )


FIGURES = (
    Figure(
        name="topo_l4s",
        help="L4S/DCTCP marking vs classic AQM bias",
        group="topology",
        knob="quick",
        # DualPI2's lotteries draw from the experiment's fixed default seed.
        seeded=False,
        cells=lambda quick: run_l4s_experiment(quick=quick).cells(),
        render=lambda args, parser, executor: run_l4s_experiment(
            quick=args.quick, executor=executor
        ).summary_lines(),
    ),
)
