"""Topology experiments: A/B bias under heterogeneous RTTs and AQM.

The paper's lab experiments measure interference bias on one topology: a
single drop-tail bottleneck with one RTT shared by every flow.  These
experiments re-run the paper's headline treatment (opening a second TCP
connection) on the packet-level simulator while varying the topology
along two axes the testbed could not:

* :func:`run_rtt_experiment` — units sit at *different* RTTs (a spread
  of propagation delays, as in any real access network).  The allocation
  sweep still identifies the naive A/B estimate, the TTE and the
  spillover, so the figure answers: does RTT heterogeneity change the
  bias the paper measured under symmetric RTTs?
* :func:`run_aqm_experiment` — the same sweep under drop-tail and under
  an AQM discipline (CoDel by default).  AQM keeps the standing queue
  short, which changes *how* flows interfere; comparing the bias of the
  naive A/B estimate across disciplines answers: does AQM shrink the A/B
  bias?

Both run every simulation arm through the one
:class:`~repro.runner.executor.ParallelExecutor` they are passed, so
results are deterministic and bit-identical for any worker count.
"""

from __future__ import annotations

import argparse
import math
from collections.abc import Sequence

from repro.experiments.figures import Figure
from repro.experiments.lab_common import (
    BIAS_ALLOCATION,
    BiasComparison,
    LabFigure,
    sweep_connection_treatment,
    sweep_to_figure,
)
from repro.netsim.packet.queue import QUEUE_DISCIPLINES
from repro.runner.executor import ParallelExecutor

__all__ = [
    "DEFAULT_RTT_SPREAD_MS",
    "AqmBiasComparison",
    "run_rtt_experiment",
    "run_aqm_experiment",
    "parse_disciplines",
]

#: Default per-unit RTT profile (ms): a 8x spread, cycled across units so
#: treated and control arms see the same RTT mix at every allocation.
DEFAULT_RTT_SPREAD_MS: tuple[float, ...] = (10.0, 20.0, 40.0, 80.0)


def run_rtt_experiment(
    *,
    rtt_spread_ms: Sequence[float] = DEFAULT_RTT_SPREAD_MS,
    quick: bool = False,
    executor: ParallelExecutor | None = None,
) -> LabFigure:
    """A/B bias of the parallel-connections treatment under RTT heterogeneity.

    Unit ``i`` sits at ``rtt_spread_ms[i % len(rtt_spread_ms)]``, so both
    arms contain the full RTT mix at every allocation; everything else
    matches the paper's Figure 2a setup on the packet simulator.

    Parameters
    ----------
    rtt_spread_ms:
        Per-unit RTT profile in milliseconds, cycled across units.
    quick:
        Shrink the sweep (fewer units, shorter runs) for smoke tests.
    executor:
        Runs the sweep arms (default: a serial, uncached one).
    """
    if not rtt_spread_ms:
        raise ValueError("rtt_spread_ms must not be empty")
    spread = "/".join(f"{r:g}" for r in rtt_spread_ms)
    sweep, units = sweep_connection_treatment(
        quick,
        units=f"applications at heterogeneous RTTs ({spread} ms)",
        rtt_ms=tuple(float(r) for r in rtt_spread_ms),
        executor=executor,
    )
    return sweep_to_figure(
        sweep, name="topo_rtt", description=f"{units} on a shared drop-tail bottleneck"
    )


class AqmBiasComparison(BiasComparison):
    """The same allocation sweep under two or more queue disciplines.

    ``figures[d]`` is the :class:`LabFigure` obtained under discipline
    ``d``; :meth:`bias` reduces each to the quantity of interest — how far
    the naive A/B estimate sits from the true total treatment effect.
    """

    arm_noun = "queue discipline"

    def cells(self) -> dict[str, float]:
        """Scalar cells per discipline: bias, TTE and the 50 % A/B estimate."""
        cells: dict[str, float] = {}
        for discipline, figure in self.figures.items():
            cells[f"bias_throughput@0.5:{discipline}"] = self.bias(discipline)
            cells[f"tte_throughput_mbps:{discipline}"] = figure.tte("throughput_mbps")
            cells[f"ab_throughput_mbps@0.5:{discipline}"] = figure.ab_estimate(
                "throughput_mbps", BIAS_ALLOCATION
            )
        return cells


def run_aqm_experiment(
    *,
    disciplines: Sequence[str] = ("droptail", "codel"),
    quick: bool = False,
    executor: ParallelExecutor | None = None,
    name: str = "topo_aqm",
) -> AqmBiasComparison:
    """The parallel-connections bias sweep under each queue discipline.

    Parameters
    ----------
    disciplines:
        Queue disciplines to compare (names from
        :data:`repro.netsim.packet.queue.QUEUE_DISCIPLINES`).
    quick:
        Shrink the sweep (fewer units, shorter runs) for smoke tests.
    executor:
        Runs the arms of *all* disciplines (default: a serial, uncached
        one).
    name:
        Figure-name prefix (``run_fq_experiment`` reuses this harness
        under the name ``topo_fq``).
    """
    if not disciplines:
        raise ValueError("at least one queue discipline is required")
    if len(set(disciplines)) != len(disciplines):
        raise ValueError(f"queue disciplines must be distinct, got {list(disciplines)}")
    unknown = [d for d in disciplines if d not in QUEUE_DISCIPLINES]
    if unknown:
        raise ValueError(
            f"unknown queue discipline(s) {unknown}; "
            f"expected names from {sorted(QUEUE_DISCIPLINES)}"
        )
    figures: dict[str, LabFigure] = {}
    for discipline in disciplines:
        sweep, units = sweep_connection_treatment(
            quick,
            queue_discipline=discipline,
            # The sweep keys the seed only for a discipline that draws from it.
            seed=0,
            executor=executor,
        )
        figures[discipline] = sweep_to_figure(
            sweep,
            name=f"{name}[{discipline}]",
            description=f"{units} on a shared {discipline} bottleneck",
        )
    return AqmBiasComparison(figures=figures)


def parse_disciplines(text: str, parser: argparse.ArgumentParser) -> tuple[str, ...]:
    """The ``--disciplines`` flag: distinct comma-separated queue discipline names."""
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [name for name in names if name not in QUEUE_DISCIPLINES]
    if not names or unknown or len(set(names)) != len(names):
        parser.error(
            f"--disciplines needs distinct comma-separated names from "
            f"{', '.join(sorted(QUEUE_DISCIPLINES))}; got {text!r}"
        )
    return names


def _parse_rtt_spread(text: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values or not all(0 < v < math.inf for v in values):
        parser.error(
            f"--rtt-spread needs positive, finite comma-separated ms values, got {text!r}"
        )
    return values


FIGURES = (
    Figure(
        name="topo_rtt",
        help="A/B bias under heterogeneous RTTs",
        group="topology",
        knob="quick",
        seeded=False,
        cells=lambda quick: run_rtt_experiment(quick=quick).cells(),
        render=lambda args, parser, executor: run_rtt_experiment(
            rtt_spread_ms=_parse_rtt_spread(args.rtt_spread, parser),
            quick=args.quick,
            executor=executor,
        ).summary_lines(),
        add_arguments=lambda parser: parser.add_argument(
            "--rtt-spread",
            default="10,20,40,80",
            help="per-unit RTT profile, comma-separated ms (default: 10,20,40,80)",
        ),
    ),
    Figure(
        name="topo_aqm",
        help="A/B bias under AQM (CoDel/RED) vs drop-tail",
        group="topology",
        knob="quick",
        seeded=False,
        cells=lambda quick: run_aqm_experiment(quick=quick).cells(),
        render=lambda args, parser, executor: run_aqm_experiment(
            disciplines=parse_disciplines(args.disciplines, parser),
            quick=args.quick,
            executor=executor,
        ).summary_lines(),
        add_arguments=lambda parser: parser.add_argument(
            "--disciplines",
            default="droptail,codel",
            help="queue disciplines to compare (default: droptail,codel)",
        ),
    ),
)
