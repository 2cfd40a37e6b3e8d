"""Topology experiments: parking-lot spillover and per-flow fair queueing.

Two experiments close out the topology axes the paper names but its
testbed could not build:

* :func:`run_parking_lot_experiment` — the connection-count treatment on
  a multi-bottleneck *parking lot*: segments in series, every unit
  crossing two consecutive segments, neighbouring spans overlapping, and
  one unmeasured cross-traffic flow per segment.  Spillover now travels
  *along the chain*: treating a unit on segments (0, 1) displaces the
  units on (1, 2), which in turn changes what the units on (2, 3) see —
  control outcomes shift on segments the treated unit never touches.
  The experiment quantifies both headline predictions: the A/B bias is
  *larger* than on a single bottleneck of the same capacity, and the
  spillover reaches units that share no queue with the treatment
  (:attr:`ParkingLotComparison.remote_spillover_mbps`), which is what
  makes the bias harder to localize in a real network.
* :func:`run_fq_experiment` — the same sweep under drop-tail and under
  FQ-CoDel with per-unit sub-queues.  The paper's sharpest falsifiable
  prediction: per-user fair queueing makes the extra connection worthless
  (each unit's share is pinned by round-robin, not by its connection
  count), so the naive A/B estimate *and* the TTE both collapse to zero
  and the bias vanishes.  Drop-tail on the identical workload reproduces
  the familiar, clearly nonzero bias.

Both run every simulation arm through the one
:class:`~repro.runner.executor.ParallelExecutor` they are passed, so
results are deterministic and bit-identical for any worker count.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.estimands import AllocationSweep
from repro.experiments.figures import Figure
from repro.experiments.lab_common import (
    BiasComparison,
    sweep_connection_treatment,
    sweep_scale,
    sweep_to_figure,
)
from repro.experiments.lab_topology import (
    AqmBiasComparison,
    parse_disciplines,
    run_aqm_experiment,
)
from repro.netsim.packet.network import parking_lot_path, parking_lot_queues
from repro.netsim.packet.simulation import FlowConfig
from repro.runner.executor import ParallelExecutor

__all__ = [
    "CROSS_TRAFFIC_PER_SEGMENT",
    "DEFAULT_SEGMENTS",
    "MIN_SEGMENTS",
    "SEGMENT_SPAN",
    "ParkingLotComparison",
    "run_parking_lot_experiment",
    "run_fq_experiment",
]

#: Number of bottleneck segments in the default parking lot.
DEFAULT_SEGMENTS = 4

#: Consecutive segments each experimental unit crosses.
SEGMENT_SPAN = 2

#: Fewest segments with two disjoint unit spans (three distinct span
#: starts), which the cross-segment spillover measurement requires.
MIN_SEGMENTS = SEGMENT_SPAN + 2

#: Flow-id offset of unmeasured cross-traffic applications (clear of units).
CROSS_TRAFFIC_ID_BASE = 1000

#: Unmeasured single-connection background flows pinned to each segment.
CROSS_TRAFFIC_PER_SEGMENT = 1


#: Units on the lot: every span start carries two of them.
PARKING_UNITS = 6


def _parking_allocations(quick: bool) -> tuple[int, ...]:
    """Treated counts: 0 and 1 for the remote-spillover measurement and
    the midpoint for the 50 % A/B comparison."""
    return (0, 1, 3, 6) if quick else (0, 1, 2, 3, 4, 6)


def _unit_start_segment(unit: int, n_segments: int) -> int:
    """Start segment of a unit's span, cycled so spans stay balanced."""
    return unit % (n_segments - SEGMENT_SPAN + 1)


@dataclass
class ParkingLotComparison(BiasComparison):
    """The connection-count sweep on a single bottleneck vs a parking lot.

    ``figures`` holds one :class:`LabFigure` per topology (``"single"``,
    ``"parking"``); :meth:`bias` reduces each to how far the naive A/B
    estimate sits from the true total treatment effect.

    Attributes
    ----------
    n_segments:
        Segments in the parking-lot chain.
    remote_spillover_mbps:
        Mean throughput change, between the all-control run and the run
        with exactly one treated unit, of the control units that share
        *no* queue with that treated unit.  Nonzero means treatment
        effects propagate across segments the treated traffic never
        crosses — interference a per-queue audit cannot localize.
    """

    n_segments: int
    remote_spillover_mbps: float

    arm_noun = "topology"

    def notes(self) -> list[str]:
        """The cross-segment spillover line."""
        return [
            f"cross-segment spillover (1 treated unit, controls sharing no queue "
            f"with it): {self.remote_spillover_mbps:+.2f} Mb/s"
        ]

    def cells(self) -> dict[str, float]:
        """Scalar cells: per-topology bias plus the cross-segment spillover."""
        return {**super().cells(), "remote_spillover_mbps": self.remote_spillover_mbps}


def run_parking_lot_experiment(
    *,
    n_segments: int = DEFAULT_SEGMENTS,
    quick: bool = False,
    executor: ParallelExecutor | None = None,
) -> ParkingLotComparison:
    """The parallel-connections bias on a parking lot vs a single bottleneck.

    Unit ``i`` crosses segments ``s .. s+1`` with ``s = i mod
    (n_segments - 1)``, so neighbouring spans overlap and every interior
    segment carries two span populations.  Each segment additionally
    carries :data:`CROSS_TRAFFIC_PER_SEGMENT` unmeasured single-connection
    flows.  The reference sweep runs the identical unit population *and*
    the identical cross-traffic population on one drop-tail bottleneck of
    the same per-queue capacity — only the topology differs, so the bias
    gap is attributable to the multi-bottleneck structure.

    Parameters
    ----------
    n_segments:
        Bottleneck segments in the chain (at least 4 so that some pairs
        of 2-segment spans share no segment, which the cross-segment
        spillover measurement requires).  The bias amplification depends on
        the per-segment load: stretching the same unit population over
        many more segments dilutes the contention and with it the
        amplification (the defaults keep every segment congested).
    quick:
        Shrink the sweep (fewer arms, shorter runs) for smoke tests.
    executor:
        Runs the sweep arms (default: a serial, uncached one).
    """
    if n_segments < MIN_SEGMENTS:
        raise ValueError(
            f"parking-lot experiment needs at least {MIN_SEGMENTS} segments "
            "(otherwise every pair of units shares a queue and cross-segment "
            "spillover is unmeasurable)"
        )

    parking_cross = tuple(
        FlowConfig(
            CROSS_TRAFFIC_ID_BASE + segment * CROSS_TRAFFIC_PER_SEGMENT + j,
            cc="reno",
            connections=1,
            path=parking_lot_path(segment, n_segments, span=1),
        )
        for segment in range(n_segments)
        for j in range(CROSS_TRAFFIC_PER_SEGMENT)
    )
    # The same background population, all sharing the single bottleneck.
    single_cross = tuple(
        FlowConfig(CROSS_TRAFFIC_ID_BASE + j, cc="reno", connections=1)
        for j in range(n_segments * CROSS_TRAFFIC_PER_SEGMENT)
    )

    lot = dict(n_units=PARKING_UNITS, allocations=_parking_allocations(quick))
    parking_sweep, _ = sweep_connection_treatment(
        quick,
        path=lambda i: parking_lot_path(
            _unit_start_segment(i, n_segments), n_segments, span=SEGMENT_SPAN
        ),
        extra_queues=parking_lot_queues(n_segments, sweep_scale(quick)["capacity_mbps"]),
        cross_traffic=parking_cross,
        executor=executor,
        **lot,
    )
    single_sweep, units = sweep_connection_treatment(
        quick, cross_traffic=single_cross, executor=executor, **lot
    )

    figures = {
        "single": sweep_to_figure(
            single_sweep,
            name="topo_parking[single]",
            description=(
                f"{units} plus {len(single_cross)} unmeasured cross-traffic "
                f"flow(s) on one shared drop-tail bottleneck"
            ),
        ),
        "parking": sweep_to_figure(
            parking_sweep,
            name="topo_parking[parking]",
            description=(
                f"the same applications crossing {SEGMENT_SPAN}-segment spans of a "
                f"{n_segments}-segment drop-tail parking lot with "
                f"{CROSS_TRAFFIC_PER_SEGMENT} unmeasured cross-traffic flow(s) "
                f"per segment"
            ),
        ),
    }
    return ParkingLotComparison(
        figures=figures,
        n_segments=n_segments,
        remote_spillover_mbps=_remote_spillover(parking_sweep, n_segments),
    )


def _remote_spillover(sweep: AllocationSweep, n_segments: int) -> float:
    """Throughput shift of controls that share no segment with unit 0.

    Compares the all-control arm (k=0) with the one-treated arm (k=1,
    treated = unit 0) on the units whose spans are disjoint from unit
    0's.  Any shift reached them through the chain, not through a shared
    queue.
    """
    base = sweep.results.get(0)
    one_treated = sweep.results.get(1)
    if base is None or one_treated is None:  # pragma: no cover - guarded by scale
        raise ValueError("remote spillover needs the k=0 and k=1 arms")
    treated_span = _span_segments(0, n_segments)
    remote_units = [
        i
        for i in range(1, sweep.n_units)
        if not (_span_segments(i, n_segments) & treated_span)
    ]
    if not remote_units:
        raise ValueError(
            f"no unit's span is disjoint from unit 0's with {n_segments} segments"
        )
    before = sum(base.flow(i).throughput_mbps for i in remote_units)
    after = sum(one_treated.flow(i).throughput_mbps for i in remote_units)
    return (after - before) / len(remote_units)


def _span_segments(unit: int, n_segments: int) -> set[int]:
    start = _unit_start_segment(unit, n_segments)
    return set(range(start, start + SEGMENT_SPAN))


def run_fq_experiment(
    *,
    disciplines: Sequence[str] = ("droptail", "fq_codel"),
    quick: bool = False,
    executor: ParallelExecutor | None = None,
) -> AqmBiasComparison:
    """The parallel-connections bias under drop-tail vs per-flow FQ-CoDel.

    Reuses the AQM comparison harness with FQ-CoDel in the discipline
    list.  The network builder keys FQ-CoDel sub-queues by *application*
    (the experimental unit), so this is the paper's per-user fair
    queueing scenario: the expected outcome is a clearly positive
    drop-tail bias and an FQ-CoDel bias of approximately zero.

    Parameters
    ----------
    disciplines:
        Queue disciplines to compare; defaults to drop-tail against
        FQ-CoDel.
    quick:
        Shrink the sweep (fewer units, shorter runs) for smoke tests.
    executor:
        Runs the sweep arms (default: a serial, uncached one).
    """
    return run_aqm_experiment(
        disciplines=disciplines, quick=quick, executor=executor, name="topo_fq"
    )


def _render_parking_lot(
    args: argparse.Namespace, parser: argparse.ArgumentParser, executor: ParallelExecutor
) -> list[str]:
    if args.segments < MIN_SEGMENTS:
        parser.error(
            f"--segments must be at least {MIN_SEGMENTS} (cross-segment "
            "spillover needs two disjoint unit spans)"
        )
    return run_parking_lot_experiment(
        n_segments=args.segments, quick=args.quick, executor=executor
    ).summary_lines()


FIGURES = (
    Figure(
        name="topo_parking",
        help="parking-lot bias and cross-segment spillover",
        group="topology",
        knob="quick",
        seeded=False,
        cells=lambda quick: run_parking_lot_experiment(quick=quick).cells(),
        render=_render_parking_lot,
        add_arguments=lambda parser: parser.add_argument(
            "--segments",
            type=int,
            default=DEFAULT_SEGMENTS,
            help="bottleneck segments in the parking-lot chain (default: 4)",
        ),
    ),
    Figure(
        name="topo_fq",
        help="per-flow FQ-CoDel vs drop-tail bias",
        group="topology",
        knob="quick",
        seeded=False,
        cells=lambda quick: run_fq_experiment(quick=quick).cells(),
        render=lambda args, parser, executor: run_fq_experiment(
            disciplines=parse_disciplines(args.disciplines, parser),
            quick=args.quick,
            executor=executor,
        ).summary_lines(),
        add_arguments=lambda parser: parser.add_argument(
            "--disciplines",
            default="droptail,fq_codel",
            help="queue disciplines to compare (default: droptail,fq_codel)",
        ),
    ),
)
