"""Packet-level simulation harness.

Builds a lab topology — ``n`` applications, each with one or more TCP
connections, crossing one or more bottleneck queues — runs it for a fixed
duration, and reports per-application throughput and retransmission
fraction measured after a warm-up period.

The default topology mirrors the paper's testbed: a single drop-tail
bottleneck, symmetric propagation delay, receivers acknowledging every
packet immediately.  Beyond the default, every axis is composable via
:mod:`repro.netsim.packet.network`: per-flow RTTs (``FlowConfig.rtt_ms``),
AQM queue disciplines (``queue_discipline="red"`` / ``"codel"`` /
``"fq_codel"`` / ``"dualpi2"``), ECN negotiation (``FlowConfig.ecn``), random-loss path
segments (``FlowConfig.path``), additional named queues
(``extra_queues``, e.g. a parking-lot chain) and unmeasured background
flows (``cross_traffic``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.netsim.packet.network import Network, PathConfig, QueueConfig
from repro.netsim.packet.tcp.base import normalize_ecn
from repro.obs.metrics import EngineCounters
from repro.obs.probe import ProbeConfig, ProbeLog
from repro.runner.spec import register_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.traffic.source import DynamicTrafficResult, TrafficSource

__all__ = ["FlowConfig", "FlowResult", "PacketSimResult", "simulate"]


@dataclass(frozen=True)
class FlowConfig:
    """Configuration of one application in a packet-level simulation.

    Parameters
    ----------
    flow_id:
        Identifier of the application.
    cc:
        Congestion control algorithm: ``"reno"``, ``"cubic"`` or ``"bbr"``.
    connections:
        Number of parallel TCP connections the application opens.
    paced:
        Whether the application's loss-based connections pace their packets
        (BBR always paces).
    ecn:
        ECN negotiation and response mode of the application's
        connections.  ``False`` (default): no ECN.  ``True`` or
        ``"classic"``: the RFC 3168 response — AQM queues CE-mark the
        packets instead of dropping them and each echoed mark costs one
        loss-equivalent window reduction per RTT, with no retransmission
        (``True`` is a backward-compatible alias for ``"classic"``).
        ``"l4s"``: the scalable DCTCP/Prague response — the sender keeps
        a per-RTT EWMA of the *fraction* of acked packets carrying CE
        (``l4s_alpha``) and cuts the window proportionally
        (``cwnd -= cwnd * alpha / 2``) instead of halving, so
        fine-grained shallow marking steers it smoothly; the packets are
        flagged as L4S (the model's ECT(1)), which the ``"dualpi2"``
        discipline classifies into its low-latency queue.  BBR ignores
        marks in both modes.
    treated:
        Arm label carried through to the results; does not change behaviour.
    rtt_ms:
        This application's two-way propagation delay.  ``None`` inherits
        the simulation's ``base_rtt_ms``; setting it overrides the path's
        ``rtt_ms`` too.
    path:
        Network path of this application's packets (loss segment, queue
        sequence).  ``None`` means the default path through the single
        bottleneck.
    transfer_bytes:
        Bytes *each* of the application's connections transfers before
        completing; ``None`` (default) models unlimited bulk transfers
        present for the whole simulation.  Finite applications record a
        flow-completion time (``FlowResult.fct_s``) once every
        connection has delivered its transfer.
    """

    flow_id: int
    cc: str = "reno"
    connections: int = 1
    paced: bool = False
    ecn: bool | str = False
    treated: bool = False
    rtt_ms: float | None = None
    path: PathConfig | None = None
    transfer_bytes: float | None = None

    def __post_init__(self) -> None:
        if self.connections < 1:
            raise ValueError("connections must be at least 1")
        normalize_ecn(self.ecn)  # reject invalid modes at config time
        if self.rtt_ms is not None and self.rtt_ms <= 0:
            raise ValueError("rtt_ms must be positive")
        if self.transfer_bytes is not None and self.transfer_bytes < 0:
            raise ValueError("transfer_bytes must be non-negative")


@dataclass
class FlowResult:
    """Measured outcomes of one application."""

    flow_id: int
    treated: bool
    throughput_mbps: float
    retransmit_fraction: float
    packets_sent: int
    packets_lost: int
    #: Acked packets that carried a CE mark (0 unless the flow uses ECN).
    packets_marked: int = 0
    #: Whether a finite application (``FlowConfig.transfer_bytes``)
    #: delivered every connection's transfer before the simulation ended;
    #: ``None`` for unlimited applications.
    completed: bool | None = None
    #: Flow-completion time of a finite application, in seconds: from its
    #: first connection's start to its last connection's completion.
    #: ``None`` while incomplete and for unlimited applications.
    fct_s: float | None = None


@dataclass
class PacketSimResult:
    """Results of a packet-level simulation run.

    Cross-traffic applications are excluded from ``flows`` but their
    packets still show up in the queue counters.

    Flow-completion accounting (the dynamic-traffic subsystem):

    * finite *measured* applications (``FlowConfig.transfer_bytes``)
      report their completion state and flow-completion time on their own
      :class:`FlowResult` (``completed``/``fct_s``);
    * *dynamic* flows spawned by traffic sources are unmeasured — like
      cross traffic they never appear in ``flows`` — but each source's
      lifecycle lands in ``traffic``: flows started/completed, the
      per-flow completion times (spawn order) and delivered bytes, see
      :class:`~repro.netsim.traffic.source.DynamicTrafficResult`.
      :meth:`mean_dynamic_fct_s` and :meth:`dynamic_flow_counts`
      aggregate across sources.
    """

    flows: list[FlowResult]
    duration_s: float
    capacity_mbps: float
    total_drops: int
    max_queue_occupancy_bytes: float
    #: Drops per named queue (one entry, "bottleneck", in the default topology).
    queue_drops: dict[str, int] = field(default_factory=dict)
    #: ECN CE marks per named queue.
    queue_marks: dict[str, int] = field(default_factory=dict)
    #: Per-source lifecycle results of dynamic traffic, keyed by the
    #: source's label (``"source<i>"`` when unset); empty without sources.
    traffic: dict[str, DynamicTrafficResult] = field(default_factory=dict)
    #: Engine counters of the run; ``None`` only for hand-built results
    #: in tests.
    engine: EngineCounters | None = None
    #: Sampled in-sim telemetry when the run was probed, else ``None``.
    probe: ProbeLog | None = None

    def flow(self, flow_id: int) -> FlowResult:
        """Result of the application with the given id."""
        for f in self.flows:
            if f.flow_id == flow_id:
                return f
        raise KeyError(f"no flow with id {flow_id}")

    def group_mean_throughput(self, treated: bool) -> float:
        """Mean application throughput (Mb/s) of one arm."""
        values = [f.throughput_mbps for f in self.flows if f.treated == treated]
        if not values:
            raise ValueError("no flows in the requested arm")
        return sum(values) / len(values)

    def group_mean_retransmit(self, treated: bool) -> float:
        """Mean retransmit fraction of one arm."""
        values = [f.retransmit_fraction for f in self.flows if f.treated == treated]
        if not values:
            raise ValueError("no flows in the requested arm")
        return sum(values) / len(values)

    def total_throughput_mbps(self) -> float:
        """Aggregate throughput of all applications."""
        return sum(f.throughput_mbps for f in self.flows)

    def total_marks(self) -> int:
        """Aggregate ECN CE marks across all queues."""
        return sum(self.queue_marks.values())

    def dynamic_flow_counts(self) -> tuple[int, int]:
        """(started, completed) dynamic flows across all traffic sources."""
        started = sum(t.flows_started for t in self.traffic.values())
        completed = sum(t.flows_completed for t in self.traffic.values())
        return started, completed

    def mean_dynamic_fct_s(self) -> float | None:
        """Mean flow-completion time across every source's completed
        dynamic flows, or ``None`` when nothing completed."""
        fcts = [
            fct for t in self.traffic.values() for fct in t.completion_times_s
        ]
        if not fcts:
            return None
        return sum(fcts) / len(fcts)

    def dynamic_fct_percentile(self, percentile: float) -> float | None:
        """Nearest-rank percentile of the pooled dynamic FCTs.

        ``percentile`` is in [0, 100]; pools the completion times of all
        traffic sources (like :meth:`mean_dynamic_fct_s`) and returns
        ``None`` when nothing completed.  Tail percentiles (p95/p99) are
        the latency observable the mean FCT hides: a handful of elephant
        flows dominate the mean while the tail tracks queueing.
        """
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        fcts = sorted(
            fct for t in self.traffic.values() for fct in t.completion_times_s
        )
        if not fcts:
            return None
        rank = max(int(math.ceil(percentile / 100.0 * len(fcts))) - 1, 0)
        return fcts[min(rank, len(fcts) - 1)]


@register_task("netsim.packet_arm")
def simulate(
    flows: Sequence[FlowConfig],
    capacity_mbps: float = 100.0,
    base_rtt_ms: float = 20.0,
    buffer_bdp: float = 1.0,
    mss_bytes: int = 1500,
    duration_s: float = 10.0,
    warmup_s: float = 2.0,
    queue_discipline: str = "droptail",
    queue_params: Mapping[str, Any] | None = None,
    extra_queues: Sequence[QueueConfig] | None = None,
    cross_traffic: Sequence[FlowConfig] | None = None,
    traffic_sources: Sequence[TrafficSource] | None = None,
    seed: int | None = None,
    event_batching: bool = False,
    probe: ProbeConfig | None = None,
) -> PacketSimResult:
    """Run a packet-level simulation of flows sharing a bottleneck.

    A thin wrapper over :class:`~repro.netsim.packet.network.Network`:
    builds the default single-bottleneck topology, adds any extra queues
    and cross traffic, attaches every flow (honouring per-flow ``rtt_ms``
    and ``path`` overrides) and runs it.  It is also the
    ``netsim.packet_arm`` runner task: each arm of
    :func:`~repro.netsim.packet.sweep.run_packet_sweep` is one call.

    Parameters
    ----------
    flows:
        Application configurations.
    capacity_mbps:
        Bottleneck capacity in megabits per second.  The default is scaled
        down from the paper's 10 Gb/s so simulations complete quickly; the
        sharing behaviour under study is rate-independent.
    base_rtt_ms:
        Two-way propagation delay in milliseconds; flows with their own
        ``rtt_ms`` override it.
    buffer_bdp:
        Bottleneck buffer in bandwidth-delay products (paper: 1 BDP).
    mss_bytes:
        Segment size.
    duration_s:
        Total simulated time.
    warmup_s:
        Time excluded from measurements while flows ramp up.
    queue_discipline:
        Bottleneck queue discipline: ``"droptail"`` (default), ``"red"``,
        ``"codel"``, ``"fq_codel"`` or ``"dualpi2"``.
    queue_params:
        Extra parameters for the queue discipline (RED thresholds, CoDel
        target delay, ...).
    extra_queues:
        Additional named queues beyond the default bottleneck (e.g. the
        chain built by
        :func:`~repro.netsim.packet.network.parking_lot_queues`); paths
        may then route through them by name.
    cross_traffic:
        Unmeasured background applications: they compete in the queues
        like any flow but are excluded from the result's ``flows``.
    traffic_sources:
        Dynamic traffic: each source spawns finite flows at runtime
        (arrival process × size sampler, optionally demand-modulated).
        Spawned flows are unmeasured like cross traffic; their lifecycle
        is reported per source in the result's ``traffic`` mapping.
    seed:
        Seed for the random-loss and RED RNGs, and for every traffic
        source's arrival/size draws; inert for the default loss-free,
        churn-free drop-tail topology.
    event_batching:
        Default-off fast path: coalesce up to
        :data:`~repro.netsim.packet.network.BATCH_SEGMENTS` MSS segments
        into one macro-packet (one scheduler event per burst).
        Steady-state rates match the unbatched run within the tolerances
        pinned by the trace-equivalence tests, but traces are not
        bit-identical; leave it off when they must be.
    probe:
        In-sim telemetry sampling (:class:`repro.obs.probe.ProbeConfig`).
        ``None`` (default) disables probing; when set, the result's
        ``probe`` field carries the sampled :class:`~repro.obs.probe.ProbeLog`.
        Probing is non-perturbing — flows, drops and counters are
        byte-identical with it on or off — and inert in content keys.
    """
    if not flows:
        raise ValueError("at least one flow is required")
    if duration_s <= warmup_s:
        raise ValueError("duration_s must exceed warmup_s")
    ids = [f.flow_id for f in flows] + [f.flow_id for f in (cross_traffic or ())]
    if len(set(ids)) != len(ids):
        raise ValueError("flow ids must be unique (including cross traffic)")

    network = Network(
        capacity_mbps=capacity_mbps,
        base_rtt_ms=base_rtt_ms,
        buffer_bdp=buffer_bdp,
        mss_bytes=mss_bytes,
        queue_discipline=queue_discipline,
        queue_params=dict(queue_params) if queue_params else None,
        seed=seed,
        event_batching=event_batching,
    )
    for queue_config in extra_queues or ():
        network.add_queue_config(queue_config)
    for config in flows:
        network.add_flow(config)
    for config in cross_traffic or ():
        network.add_cross_traffic(config)
    for source in traffic_sources or ():
        network.add_traffic_source(source)
    return network.run(duration_s=duration_s, warmup_s=warmup_s, probe=probe)
