"""Composable network model: paths, queues and the topology builder.

The original harness hard-coded one drop-tail bottleneck and one
symmetric RTT shared by every flow.  This module decomposes that
topology into parts that can be recombined:

* :class:`PathConfig` — the route one application's packets take: a
  per-flow one-way propagation profile (``rtt_ms``), an optional
  random-loss segment (``loss_rate``, losses independent of congestion,
  as on an impaired link), and an ordered sequence of named bottleneck
  queues.
* :class:`QueueConfig` — a declarative, content-keyable description of
  one named queue, so sweeps can ship whole topologies through the
  runner (:func:`parking_lot_queues` builds the classic multi-bottleneck
  chain; :func:`parking_lot_path` routes a flow across a span of it).
* :class:`Network` — the builder that wires TCP senders, paths and
  queue disciplines through one :class:`~repro.netsim.packet.engine.EventScheduler`
  and assembles the per-application results.  Beyond measured flows it
  accepts *cross traffic* (:meth:`Network.add_cross_traffic`): flows
  that compete in the queues but are excluded from the results, like
  the unmeasured background traffic of any real network.

For the default configuration — a single drop-tail ``"bottleneck"``
queue, no loss segment, every flow on the network RTT — the builder
produces an event sequence identical to the historical single-link
harness, so :func:`repro.netsim.packet.simulation.simulate` remains
byte-for-byte reproducible (asserted by the golden-output test).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.netsim.packet.engine import EventScheduler
from repro.netsim.packet.packets import Packet, PacketPool
from repro.netsim.packet.queue import QUEUE_DISCIPLINES, QueueDiscipline, make_queue
from repro.netsim.packet.tcp import make_sender
from repro.netsim.packet.tcp.base import TcpSender
from repro.obs.metrics import EngineCounters
from repro.obs.probe import Probe, ProbeConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.netsim.packet.simulation import FlowConfig, PacketSimResult
    from repro.netsim.traffic.source import TrafficSource

__all__ = [
    "BATCH_SEGMENTS",
    "DEFAULT_QUEUE",
    "DYNAMIC_UNIT_BASE",
    "PathConfig",
    "QueueConfig",
    "Network",
    "parking_lot_queues",
    "parking_lot_path",
]

#: Name of the bottleneck queue every flow crosses unless its path says otherwise.
DEFAULT_QUEUE = "bottleneck"

#: Unit-id offset of dynamically spawned flows.  Each dynamic flow is its
#: own experimental unit (its own FQ-CoDel sub-queue); the offset keeps
#: those unit ids clear of any measured or cross-traffic application id.
DYNAMIC_UNIT_BASE = 1_000_000

#: Macro-packet size cap, in segments, of every sender when
#: ``event_batching`` is on.
BATCH_SEGMENTS = 8


@dataclass(frozen=True)
class PathConfig:
    """The network path of one application's packets.

    Attributes
    ----------
    rtt_ms:
        Two-way propagation delay of this path, excluding queueing.
        ``None`` inherits the network's base RTT.
    loss_rate:
        Probability that a packet is lost on an impaired segment before
        reaching the first queue.  These losses are independent of
        congestion (cf. corruption losses on a degraded link).
    queues:
        Names of the bottleneck queues the path crosses, in order.  Every
        name must exist on the :class:`Network` the flow is attached to.
    """

    rtt_ms: float | None = None
    loss_rate: float = 0.0
    queues: tuple[str, ...] = (DEFAULT_QUEUE,)

    def __post_init__(self) -> None:
        if self.rtt_ms is not None and self.rtt_ms <= 0:
            raise ValueError("rtt_ms must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if not self.queues:
            raise ValueError("a path must cross at least one queue")
        if len(set(self.queues)) != len(self.queues):
            # Routing is by queue name, so a path may visit each queue once.
            raise ValueError(f"path queues must be distinct, got {self.queues}")


@dataclass(frozen=True)
class QueueConfig:
    """Declarative description of one named bottleneck queue.

    The picklable, content-keyable counterpart of
    :meth:`Network.add_queue`, so whole topologies (extra queues beyond
    the default bottleneck) can travel inside a
    :class:`~repro.runner.spec.ScenarioSpec`.

    Attributes
    ----------
    name:
        Queue name paths refer to.
    capacity_mbps:
        Drain rate in Mb/s.
    buffer_bytes, buffer_bdp:
        Buffer size, directly or in bandwidth-delay products of this
        queue's capacity and the network's base RTT.  At most one may be
        set; with neither, one BDP is used.
    discipline:
        Queue discipline registry name.
    params:
        Extra discipline constructor parameters.
    """

    name: str
    capacity_mbps: float
    buffer_bytes: float | None = None
    buffer_bdp: float | None = None
    discipline: str = "droptail"
    # Mapping default is deliberate: params are canonicalised by
    # content_key and only ever read (dict(params) at queue build time).
    params: Mapping[str, Any] = field(default_factory=dict)  # repro-lint: disable=KEY001

    def __post_init__(self) -> None:
        if self.capacity_mbps <= 0:
            raise ValueError("capacity_mbps must be positive")
        if self.buffer_bytes is not None and self.buffer_bdp is not None:
            raise ValueError("specify at most one of buffer_bytes / buffer_bdp")


#: Name prefix of the bottleneck segments built by :func:`parking_lot_queues`.
SEGMENT_PREFIX = "seg"


def parking_lot_queues(
    n_segments: int,
    capacity_mbps: float | None = None,
    *,
    capacities: Sequence[float] | None = None,
    buffer_bdp: float = 1.0,
    discipline: str = "droptail",
    params: Mapping[str, Any] | None = None,
) -> tuple[QueueConfig, ...]:
    """Queue configs for a parking-lot topology: ``n_segments`` bottlenecks
    in series, named ``seg0 .. seg{n-1}``.

    Flows cross a contiguous span of segments (:func:`parking_lot_path`);
    flows on overlapping spans contend directly, and spillover propagates
    along the chain between flows that share no segment at all.

    Segment capacities come either from the scalar ``capacity_mbps``
    (every segment identical, the classic symmetric lot) or from
    ``capacities`` — one value per segment, so the chain can carry a
    single binding bottleneck that *migrates* when the allocation of
    traffic across spans shifts.  Exactly one of the two must be given.
    """
    if n_segments < 2:
        raise ValueError("a parking lot needs at least 2 segments")
    if (capacity_mbps is None) == (capacities is None):
        raise ValueError("specify exactly one of capacity_mbps / capacities")
    if capacities is None:
        capacities = [float(capacity_mbps)] * n_segments
    else:
        capacities = [float(c) for c in capacities]
        if len(capacities) != n_segments:
            raise ValueError(
                f"capacities must list one value per segment: expected "
                f"{n_segments}, got {len(capacities)}"
            )
        if any(c <= 0 for c in capacities):
            raise ValueError("segment capacities must be positive")
    return tuple(
        QueueConfig(
            name=f"{SEGMENT_PREFIX}{i}",
            capacity_mbps=capacities[i],
            buffer_bdp=buffer_bdp,
            discipline=discipline,
            params=dict(params or {}),
        )
        for i in range(n_segments)
    )


def parking_lot_path(
    start_segment: int,
    n_segments: int,
    span: int = 2,
    *,
    rtt_ms: float | None = None,
    loss_rate: float = 0.0,
) -> PathConfig:
    """Path crossing ``span`` consecutive parking-lot segments.

    The span starts at ``start_segment``, clamped so it stays on the
    chain (``start_segment >= n_segments - span`` routes through the last
    ``span`` segments).  ``span=1`` gives the classic short flow crossing
    a single segment (cross traffic); the default 2 makes neighbouring
    spans overlap so spillover propagates.
    """
    if not 1 <= span <= n_segments:
        raise ValueError("span must be in [1, n_segments]")
    if start_segment < 0:
        raise ValueError("start_segment must be non-negative")
    start = min(start_segment, n_segments - span)
    return PathConfig(
        rtt_ms=rtt_ms,
        loss_rate=loss_rate,
        queues=tuple(f"{SEGMENT_PREFIX}{j}" for j in range(start, start + span)),
    )


class Network:
    """Builder wiring senders, paths and queues through one scheduler.

    Parameters
    ----------
    capacity_mbps:
        Capacity of the default ``"bottleneck"`` queue, in Mb/s.
    base_rtt_ms:
        Two-way propagation delay flows inherit when their config does
        not carry its own ``rtt_ms``; also sizes the default buffer.
    buffer_bdp:
        Default queue's buffer in bandwidth-delay products of
        (``capacity_mbps``, ``base_rtt_ms``).
    mss_bytes:
        Segment size used by every sender.
    queue_discipline:
        Discipline of the default queue (``"droptail"``, ``"red"``,
        ``"codel"``, ``"fq_codel"`` or ``"dualpi2"``).
    queue_params:
        Extra constructor parameters for the default queue's discipline.
    seed:
        Seed of the random-loss RNG (``None`` means 0), also forwarded to
        queue disciplines with an internal RNG (RED) unless
        ``queue_params`` pins its own ``seed``.  Inert when no path has a
        loss segment and the discipline draws no randomness.
    event_batching:
        Default-off fast path: when True, senders coalesce up to
        :data:`BATCH_SEGMENTS` MSS segments into one macro-packet, so a
        window of k segments costs O(k / batch) scheduler events.
        Results are *approximately* equal to the unbatched run (same
        steady-state rates, coarser burst granularity); leave it off
        whenever bit-exact traces matter.  See ``docs/performance.md``.
    """

    def __init__(
        self,
        *,
        capacity_mbps: float = 100.0,
        base_rtt_ms: float = 20.0,
        buffer_bdp: float = 1.0,
        mss_bytes: int = 1500,
        queue_discipline: str = "droptail",
        queue_params: dict[str, Any] | None = None,
        seed: int | None = None,
        event_batching: bool = False,
    ):
        if capacity_mbps <= 0:
            raise ValueError("capacity_mbps must be positive")
        if base_rtt_ms <= 0:
            raise ValueError("base_rtt_ms must be positive")
        self.capacity_mbps = float(capacity_mbps)
        self.base_rtt_ms = float(base_rtt_ms)
        self.mss_bytes = int(mss_bytes)
        self.scheduler = EventScheduler()
        self.event_batching = bool(event_batching)
        self._batch_segments = BATCH_SEGMENTS if self.event_batching else 1
        self._pool = PacketPool()
        self._seed = 0 if seed is None else int(seed)
        self._rng = random.Random(self._seed)

        self._queues: dict[str, QueueDiscipline] = {}
        self._senders: dict[int, TcpSender] = {}
        self._connection_owner: dict[int, int] = {}
        self._routes: dict[int, tuple[str, ...]] = {}
        self._rtt_s: dict[int, float] = {}
        self._loss_rate: dict[int, float] = {}
        self._flow_configs: list[FlowConfig] = []
        self._cross_flow_ids: set[int] = set()
        self._next_connection = 0

        #: Dynamic traffic: declarative sources and, per source index,
        #: the senders spawned from it (in spawn order).
        self._traffic_sources: list[TrafficSource] = []
        self._dynamic_senders: dict[int, list[TcpSender]] = {}

        #: Packets lost on impaired path segments (not queue drops).
        self.random_losses = 0

        self.add_queue(
            DEFAULT_QUEUE,
            capacity_mbps=capacity_mbps,
            buffer_bdp=buffer_bdp,
            discipline=queue_discipline,
            **(queue_params or {}),
        )

    # -- topology -------------------------------------------------------------

    @property
    def queues(self) -> dict[str, QueueDiscipline]:
        """The network's queues by name (read-only view by convention)."""
        return self._queues

    def add_queue(
        self,
        name: str,
        *,
        capacity_mbps: float,
        buffer_bytes: float | None = None,
        buffer_bdp: float | None = None,
        discipline: str = "droptail",
        **params: Any,
    ) -> QueueDiscipline:
        """Add a named bottleneck queue flows can route through.

        The buffer is given either directly (``buffer_bytes``) or in
        bandwidth-delay products of this queue's capacity and the
        network's base RTT (``buffer_bdp``).
        """
        if name in self._queues:
            raise ValueError(f"queue {name!r} already exists")
        if (buffer_bytes is None) == (buffer_bdp is None):
            raise ValueError("specify exactly one of buffer_bytes / buffer_bdp")
        rate_bps = float(capacity_mbps) * 1e6
        if buffer_bytes is None:
            bdp = rate_bps / 8.0 * self.base_rtt_ms / 1000.0
            buffer_bytes = max(buffer_bdp * bdp, 2 * self.mss_bytes)
        cls = QUEUE_DISCIPLINES.get(discipline, QueueDiscipline)
        if cls.uses_seed:
            params.setdefault("seed", self._seed)
        if cls.uses_flow_key:
            # Fair-queueing sub-queues isolate experimental units: all of
            # an application's connections share one sub-queue, so opening
            # more of them cannot buy a larger share (per-user FQ).
            params.setdefault("flow_key", self._packet_unit)
        queue = make_queue(
            discipline,
            self.scheduler,
            rate_bps,
            buffer_bytes,
            self._departure_handler(name),
            self._drop_handler(),
            **params,
        )
        self._queues[name] = queue
        return queue

    def add_queue_config(self, config: QueueConfig) -> QueueDiscipline:
        """Add a queue from its declarative :class:`QueueConfig` form."""
        buffer_kwargs: dict[str, float] = {}
        if config.buffer_bytes is not None:
            buffer_kwargs["buffer_bytes"] = config.buffer_bytes
        else:
            buffer_kwargs["buffer_bdp"] = (
                config.buffer_bdp if config.buffer_bdp is not None else 1.0
            )
        return self.add_queue(
            config.name,
            capacity_mbps=config.capacity_mbps,
            discipline=config.discipline,
            **buffer_kwargs,
            **dict(config.params),
        )

    def _packet_unit(self, packet: Packet) -> int:
        """The experimental unit (application id) a packet belongs to."""
        return self._connection_owner.get(packet.flow_id, packet.flow_id)

    def _route(self, owner: str, path: PathConfig | None) -> PathConfig:
        """Resolve ``path`` (``None`` is the default one) and check its queues.

        An unknown queue raises ``KeyError``, naming ``owner``.
        """
        path = path if path is not None else PathConfig()
        for name in path.queues:
            if name not in self._queues:
                raise KeyError(
                    f"{owner} routes through unknown queue {name!r}; "
                    f"known queues: {sorted(self._queues)}"
                )
        return path

    def _add_connection(
        self,
        config: FlowConfig | TrafficSource,
        path: PathConfig,
        owner: int | None,
        transfer_bytes: float | None,
    ) -> TcpSender:
        """Build one sender with ``config``'s transport on ``path``.

        The connection belongs to application ``owner``; ``None`` makes
        it its own unit, ``DYNAMIC_UNIT_BASE`` plus its connection id.
        """
        rtt_ms = config.rtt_ms if config.rtt_ms is not None else path.rtt_ms
        rtt_s = (rtt_ms if rtt_ms is not None else self.base_rtt_ms) / 1000.0
        cid = self._next_connection
        self._next_connection += 1
        sender = make_sender(
            config.cc,
            cid,
            self.scheduler,
            self._ingress,
            mss_bytes=self.mss_bytes,
            base_rtt_s=rtt_s,
            paced=config.paced,
            ecn=config.ecn,
            transfer_bytes=transfer_bytes,
            batch_segments=self._batch_segments,
            pool=self._pool,
        )
        self._senders[cid] = sender
        self._connection_owner[cid] = DYNAMIC_UNIT_BASE + cid if owner is None else owner
        self._routes[cid] = path.queues
        self._rtt_s[cid] = rtt_s
        self._loss_rate[cid] = path.loss_rate
        return sender

    def add_flow(self, config: FlowConfig) -> None:
        """Attach one application: its connections, path and queues."""
        if any(config.flow_id == f.flow_id for f in self._flow_configs):
            raise ValueError(f"flow id {config.flow_id} already attached")
        path = self._route(f"flow {config.flow_id}", config.path)
        for _ in range(config.connections):
            self._add_connection(config, path, config.flow_id, config.transfer_bytes)
        self._flow_configs.append(config)

    def add_cross_traffic(self, config: FlowConfig) -> None:
        """Attach an unmeasured background application.

        Cross traffic competes in the queues exactly like a measured flow
        (same sender machinery, same paths) but is excluded from the
        per-application results — it models the traffic a real experiment
        shares its bottlenecks with but cannot observe.
        """
        self.add_flow(config)
        self._cross_flow_ids.add(config.flow_id)

    # -- dynamic traffic -------------------------------------------------------

    def add_traffic_source(self, source: TrafficSource) -> None:
        """Attach a dynamic traffic source (finite flows churning at runtime).

        The source's arrival process decides *when* flows spawn and its
        size sampler *how much* each transfers; spawned senders start
        mid-simulation, complete when their transfer is acknowledged and
        retire.  Like cross traffic, dynamic flows are excluded from the
        per-application results, but their lifecycle (spawn/completion
        counts, flow-completion times, delivered bytes) is reported per
        source in ``PacketSimResult.traffic``.
        """
        labels = {
            src.label or f"source{i}" for i, src in enumerate(self._traffic_sources)
        }
        label = source.label or f"source{len(self._traffic_sources)}"
        if label in labels:
            raise ValueError(f"traffic source label {label!r} already attached")
        self._traffic_sources.append(source)

    def _schedule_traffic(self, duration_s: float) -> None:
        """Pre-generate every source's arrivals and schedule the spawns.

        Arrival times and transfer sizes are drawn *before* the
        simulation runs, from an RNG derived deterministically from the
        network seed and the source index — so the spawn sequence is a
        pure function of the spec, independent of event interleaving.
        """
        for index, source in enumerate(self._traffic_sources):
            path = self._route(f"traffic source {index}", source.path)
            # String seeding hashes with SHA-512 under the hood, so the
            # derived stream is stable across processes and platforms.
            rng = random.Random(f"traffic:{self._seed}:{index}")
            times = source.arrivals.arrival_times(rng, duration_s, source.demand)
            self._dynamic_senders[index] = []
            for arrival in times:
                size = source.sizes.sample(rng)
                self.scheduler.schedule(
                    arrival,
                    lambda i=index, p=path, s=size: self._spawn_dynamic_flow(i, p, s),
                )

    def _spawn_dynamic_flow(self, source_index: int, path: PathConfig, size_bytes: float) -> None:
        """Spawn one finite transfer from a traffic source, starting now."""
        source = self._traffic_sources[source_index]
        sender = self._add_connection(source, path, None, size_bytes)
        self._dynamic_senders[source_index].append(sender)
        sender.start()

    # -- packet forwarding -----------------------------------------------------

    def _ingress(self, packet: Packet) -> None:
        """Entry point for sender transmissions: loss segment, then first queue."""
        cid = packet.flow_id
        loss_rate = self._loss_rate[cid]
        if loss_rate > 0.0 and self._rng.random() < loss_rate:
            self.random_losses += 1
            self._notify_loss(packet, self.scheduler.now)
            return
        self._queues[self._routes[cid][0]].enqueue(packet)

    def _departure_handler(self, queue_name: str):
        def on_departure(packet: Packet, departure_time: float) -> None:
            route = self._routes[packet.flow_id]
            hop = route.index(queue_name)
            if hop + 1 < len(route):
                self._queues[route[hop + 1]].enqueue(packet)
                return
            sender = self._senders[packet.flow_id]
            ack_time = departure_time + self._rtt_s[packet.flow_id]

            def deliver_ack(sender=sender, packet=packet, ack_time=ack_time) -> None:
                rtt_sample = ack_time - packet.send_time
                sender.handle_ack(packet, rtt_sample)
                # The ack was this packet's one terminal event (each packet
                # ends in exactly one of ack / loss): recycle the slot.
                self._pool.release(packet)

            self.scheduler.schedule(ack_time, deliver_ack)

        return on_departure

    def _drop_handler(self):
        def on_drop(packet: Packet, drop_time: float) -> None:
            self._notify_loss(packet, drop_time)

        return on_drop

    def _notify_loss(self, packet: Packet, loss_time: float) -> None:
        sender = self._senders[packet.flow_id]
        notify_time = loss_time + self._rtt_s[packet.flow_id]

        def deliver_loss(sender=sender, packet=packet) -> None:
            sender.handle_loss(packet)
            self._pool.release(packet)

        self.scheduler.schedule(notify_time, deliver_loss)

    # -- execution ------------------------------------------------------------

    def run(
        self,
        duration_s: float,
        warmup_s: float,
        probe: ProbeConfig | None = None,
    ) -> PacketSimResult:
        """Run the simulation and assemble per-application results.

        With a ``probe``, the scheduler runs in probe-interval chunks and
        the network samples read-only snapshots between chunks.  The
        scheduler pops the identical event order across repeated
        ``run(until=t)`` barriers, so the probed run's event sequence —
        and therefore every result and counter — is byte-identical to the
        unprobed one (pinned by the golden tests).
        """
        from repro.netsim.packet.simulation import FlowResult, PacketSimResult
        from repro.netsim.traffic.source import DynamicTrafficResult

        measured = [
            c for c in self._flow_configs if c.flow_id not in self._cross_flow_ids
        ]
        if not measured:
            raise ValueError(
                "at least one flow is required (cross traffic alone is unmeasurable)"
            )
        if duration_s <= warmup_s:
            raise ValueError("duration_s must exceed warmup_s")

        # Stagger starts slightly to avoid perfectly synchronized slow
        # starts; each sender starts within its own first RTT.
        n = max(len(self._senders), 1)
        for i, sender in enumerate(self._senders.values()):
            self.scheduler.schedule(i * sender.base_rtt_s / n, sender.start)

        def begin_measurements() -> None:
            for sender in self._senders.values():
                sender.begin_measurement()

        self.scheduler.schedule(warmup_s, begin_measurements)
        self._schedule_traffic(duration_s)
        probe_log = None
        if probe is None:
            self.scheduler.run(until=duration_s)
        else:
            prober = Probe(probe)
            for t in prober.sample_times(duration_s):
                self.scheduler.run(until=t)
                prober.sample(t, *self._probe_snapshots(probe))
            self.scheduler.run(until=duration_s)
            probe_log = prober.log()

        results: list[FlowResult] = []
        for config in measured:
            own = [
                self._senders[cid]
                for cid, owner in self._connection_owner.items()
                if owner == config.flow_id
            ]
            throughput = sum(s.goodput_mbps(duration_s) for s in own)
            sent = sum(s.measured_bytes_sent for s in own)
            retx = sum(s.measured_bytes_retransmitted for s in own)
            completed: bool | None = None
            fct_s: float | None = None
            if config.transfer_bytes is not None:
                # The application's transfer completes when its *last*
                # connection does; the FCT runs from the first start.
                completed = all(s.completed for s in own)
                if completed:
                    fct_s = max(s.completion_time for s in own) - min(
                        s.start_time for s in own
                    )
            results.append(
                FlowResult(
                    flow_id=config.flow_id,
                    treated=config.treated,
                    throughput_mbps=throughput,
                    retransmit_fraction=retx / sent if sent > 0 else 0.0,
                    packets_sent=sum(s.packets_sent for s in own),
                    packets_lost=sum(s.packets_lost for s in own),
                    packets_marked=sum(s.packets_marked for s in own),
                    completed=completed,
                    fct_s=fct_s,
                )
            )

        traffic: dict[str, DynamicTrafficResult] = {}
        for index, source in enumerate(self._traffic_sources):
            label = source.label or f"source{index}"
            senders = self._dynamic_senders.get(index, [])
            traffic[label] = DynamicTrafficResult(
                label=label,
                flows_started=len(senders),
                flows_completed=sum(1 for s in senders if s.completed),
                completion_times_s=tuple(
                    s.completion_time - s.start_time for s in senders if s.completed
                ),
                bytes_acked=sum(s.bytes_acked for s in senders),
            )

        return PacketSimResult(
            flows=results,
            duration_s=duration_s,
            capacity_mbps=self.capacity_mbps,
            total_drops=sum(q.packets_dropped for q in self._queues.values())
            + self.random_losses,
            max_queue_occupancy_bytes=max(
                q.max_occupancy_bytes for q in self._queues.values()
            ),
            queue_drops={name: q.packets_dropped for name, q in self._queues.items()},
            queue_marks={name: q.packets_marked for name, q in self._queues.items()},
            traffic=traffic,
            engine=EngineCounters(
                events_processed=self.scheduler.events_processed,
                events_scheduled=self.scheduler.events_scheduled,
                pool_acquired=self._pool.acquired,
                pool_reused=self._pool.reused,
                random_losses=self.random_losses,
            ),
            probe=probe_log,
        )

    def _probe_snapshots(
        self, config: ProbeConfig
    ) -> tuple[dict[str, dict[str, float]], dict[int, dict[str, float]]]:
        """Snapshot dictionaries for one probe sampling instant.

        The network prepares these so the probe never reaches into
        simulator objects; disabled kinds yield empty mappings so the
        snapshot cost is only paid for what the probe records.
        """
        queues: dict[str, dict[str, float]] = {}
        flows: dict[int, dict[str, float]] = {}
        if config.include_queues:
            queues = {name: q.probe_snapshot() for name, q in self._queues.items()}
        if config.include_flows:
            flows = {cid: s.probe_snapshot() for cid, s in self._senders.items()}
        return queues, flows
