"""Bottleneck queue disciplines.

The congestion point of the lab testbed: a queue draining at the link
rate, with a finite buffer.  :class:`QueueDiscipline` owns the service
machinery shared by every discipline — the event-driven drain loop, the
occupancy/served/dropped counters and the departure/drop callbacks — and
leaves two decisions to subclasses:

* *admission* (:meth:`QueueDiscipline._admit`): whether an arriving
  packet enters the buffer (drop-tail's full-buffer check, RED's
  probabilistic early drop);
* *dequeue* (:meth:`QueueDiscipline._next_packet`): which waiting packet
  enters service next (CoDel drops stale packets here, after measuring
  their sojourn time; FQ-CoDel additionally picks the packet by deficit
  round-robin over per-flow sub-queues);
* *storage* (:meth:`QueueDiscipline._enqueue_packet`): where an admitted
  packet waits (one FIFO by default, per-flow sub-queues for FQ-CoDel).

AQM disciplines support ECN: when the decision to drop falls on a packet
whose flow negotiated ECN (``Packet.ecn_capable``), the queue CE-marks the
packet (:meth:`QueueDiscipline._mark`) and lets it through instead; the
sender reacts to the echoed mark with a window reduction but no
retransmission.  Hard buffer-overflow drops are never converted to marks.

Beyond the drop-replacement marks, :class:`DualPI2Queue` gives L4S
traffic an early, shallow signal (RFC 9332).  It is a dual-queue coupled
AQM whose low-latency queue step-marks L4S traffic at a sub-millisecond
threshold while a PI2 controller drops (or classically marks) in the
classic queue, the two coupled by the square law so both traffic classes
converge on the same per-flow rate.

Disciplines are registered by name in :data:`QUEUE_DISCIPLINES` so
scenario specs can select them with a plain string; :func:`make_queue`
is the corresponding factory.
"""

from __future__ import annotations

import math
import random
from collections import deque
from collections.abc import Callable

from repro.netsim.packet.engine import EventScheduler
from repro.netsim.packet.packets import Packet

__all__ = [
    "QueueDiscipline",
    "DropTailQueue",
    "REDQueue",
    "CoDelQueue",
    "FqCoDelQueue",
    "DualPI2Queue",
    "QUEUE_DISCIPLINES",
    "make_queue",
]


class QueueDiscipline:
    """Base class for bottleneck queues served at a fixed rate.

    Parameters
    ----------
    scheduler:
        The event scheduler driving the simulation.
    rate_bps:
        Drain (link) rate in bits per second.
    buffer_bytes:
        Maximum number of bytes the queue can hold (excluding the packet
        currently being transmitted).  Every discipline enforces this as
        a hard limit; AQM disciplines drop earlier.
    on_departure:
        Callback invoked as ``on_departure(packet, departure_time)`` when a
        packet finishes transmission.
    on_drop:
        Callback invoked as ``on_drop(packet, drop_time)`` when a packet is
        dropped (on arrival, or — for CoDel — at dequeue).
    """

    #: Registry name; subclasses override.
    name = "base"

    #: Whether the discipline's constructor takes a ``seed`` for an internal
    #: RNG.  The network builder forwards its seed to such disciplines.
    uses_seed = False

    #: Whether the discipline's constructor takes a ``flow_key`` classifier
    #: (FQ-CoDel).  The network builder forwards a per-application
    #: classifier to such disciplines so sub-queues isolate experimental
    #: units rather than individual connections.
    uses_flow_key = False

    def __init__(
        self,
        scheduler: EventScheduler,
        rate_bps: float,
        buffer_bytes: float,
        on_departure: Callable[[Packet, float], None],
        on_drop: Callable[[Packet, float], None],
    ):
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if buffer_bytes < 0:
            raise ValueError("buffer_bytes must be non-negative")
        self._scheduler = scheduler
        self._rate_bps = float(rate_bps)
        self._buffer_bytes = float(buffer_bytes)
        self._on_departure = on_departure
        self._on_drop = on_drop

        #: Waiting packets, each paired with its arrival time.
        self._queue: deque[tuple[Packet, float]] = deque()
        self._queued_bytes = 0.0
        #: The packet on the wire; ``None`` while the link is idle.
        self._in_service: Packet | None = None
        self._service_finish_time = 0.0
        #: Whether this discipline overrides the :meth:`_on_arrival` hook
        #: (RED, DualPI2); the others skip the no-op call per arrival.
        self._observes_arrivals = type(self)._on_arrival is not QueueDiscipline._on_arrival

        #: Total packets offered to the queue (served + dropped + waiting).
        self.packets_offered = 0
        #: Total packets that entered service.
        self.packets_served = 0
        #: Total packets dropped.
        self.packets_dropped = 0
        #: Total packets CE-marked instead of dropped (ECN).
        self.packets_marked = 0
        #: Total bytes that entered service.
        self.bytes_served = 0.0
        #: Maximum queue occupancy observed, in bytes.
        self.max_occupancy_bytes = 0.0

    # -- state ---------------------------------------------------------------

    @property
    def occupancy_bytes(self) -> float:
        """Bytes currently waiting in the buffer (excludes packet in service)."""
        return self._queued_bytes

    @property
    def occupancy_packets(self) -> int:
        """Packets currently waiting in the buffer."""
        return len(self._queue)

    @property
    def buffer_bytes(self) -> float:
        """Hard buffer limit in bytes."""
        return self._buffer_bytes

    @property
    def rate_bps(self) -> float:
        """Drain rate in bits per second."""
        return self._rate_bps

    def queueing_delay(self) -> float:
        """Expected waiting time for a packet arriving now, in seconds.

        Covers the backlogged bytes *and* the residual service time of the
        packet currently on the wire, so an arrival during a transmission
        is not underestimated by up to one serialization time.
        """
        backlog = self._queued_bytes * 8.0 / self._rate_bps
        residual = 0.0
        if self._in_service is not None:
            residual = max(self._service_finish_time - self._scheduler.now, 0.0)
        return backlog + residual

    def transmission_time(self, packet: Packet) -> float:
        """Serialization time of one packet at the link rate, in seconds."""
        return packet.size_bytes * 8.0 / self._rate_bps

    def probe_snapshot(self) -> dict[str, float]:
        """Read-only telemetry snapshot for :class:`repro.obs.probe.Probe`.

        Built from the public surface only (properties work for every
        discipline, including FQ-CoDel's per-flow storage); reading it
        never mutates queue state, so probing cannot perturb a run.
        """
        return {
            "occupancy_bytes": float(self.occupancy_bytes),
            "occupancy_packets": float(self.occupancy_packets),
            "sojourn_s": float(self.queueing_delay()),
            "packets_dropped": float(self.packets_dropped),
            "packets_marked": float(self.packets_marked),
            "bytes_served": float(self.bytes_served),
        }

    # -- discipline hooks ------------------------------------------------------

    def _on_arrival(self, packet: Packet, now: float) -> None:
        """Observe an arrival before the admission decision (RED's EWMA)."""

    def _became_idle(self, now: float) -> None:
        """Observe the queue going idle (empty and nothing in service)."""

    def _admit(self, packet: Packet, now: float) -> bool:
        """Decide whether an arriving packet may enter the buffer."""
        raise NotImplementedError

    def _enqueue_packet(self, packet: Packet, now: float) -> None:
        """Store an admitted packet until service (one FIFO by default)."""
        self._queue.append((packet, now))
        self._queued_bytes += packet.size_bytes

    def _next_packet(self, now: float) -> Packet | None:
        """Pop the next packet to serve (FIFO); AQM may drop stale ones here."""
        if not self._queue:
            return None
        packet, _ = self._queue.popleft()
        self._queued_bytes -= packet.size_bytes
        return packet

    # -- operations -----------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the queue.  Returns True if accepted, False if dropped."""
        now = self._scheduler.now
        self.packets_offered += 1
        if self._observes_arrivals:
            self._on_arrival(packet, now)
        if self._in_service is not None:
            if not self._admit(packet, now):
                self._drop(packet, now)
                return False
            self._enqueue_packet(packet, now)
            if self._queued_bytes > self.max_occupancy_bytes:
                self.max_occupancy_bytes = self._queued_bytes
        else:
            self._start_service(packet, now)
        return True

    def _drop(self, packet: Packet, time: float) -> None:
        self.packets_dropped += 1
        self._on_drop(packet, time)

    def _mark(self, packet: Packet, time: float) -> None:
        """CE-mark an ECN-capable packet the AQM decided to punish."""
        packet.ce_marked = True
        self.packets_marked += 1

    def _mark_or_refuse(self, packet: Packet, now: float) -> bool:
        """AQM admission verdict for a packet the discipline wants to drop.

        ECN-capable packets are CE-marked and admitted (True); others are
        refused (False) and the caller drops them.
        """
        if packet.ecn_capable:
            self._mark(packet, now)
            return True
        return False

    def _start_service(self, packet: Packet, now: float) -> None:
        """Put ``packet`` on the wire; it departs one serialization time later."""
        self._in_service = packet
        self.packets_served += 1
        size = packet.size_bytes
        self.bytes_served += size
        finish = now + size * 8.0 / self._rate_bps
        self._service_finish_time = finish
        self._scheduler.schedule(finish, self._finish_service)

    def _finish_service(self) -> None:
        now = self._scheduler.now
        self._on_departure(self._in_service, now)
        next_packet = self._next_packet(now)
        if next_packet is not None:
            self._start_service(next_packet, now)
        else:
            self._in_service = None
            self._became_idle(now)


class DropTailQueue(QueueDiscipline):
    """FIFO queue that drops arrivals once the buffer is full (the default)."""

    name = "droptail"

    def _admit(self, packet: Packet, now: float) -> bool:
        return self._queued_bytes + packet.size_bytes <= self._buffer_bytes


class REDQueue(QueueDiscipline):
    """Random Early Detection (Floyd & Jacobson 1993), simplified.

    Keeps an exponentially weighted moving average of the queue occupancy
    and drops arrivals probabilistically once the average crosses
    ``min_threshold``: the drop probability rises linearly from 0 to
    ``max_drop_probability`` at ``max_threshold`` (with the classic
    ``1/(1 - count·p)`` spreading term), and is 1 above ``max_threshold``.
    The hard ``buffer_bytes`` limit still applies.  All randomness comes
    from ``seed``, so a RED simulation is a pure function of its inputs.

    Idle periods decay the average (the paper's idle-time correction): on
    the first arrival after the queue drained, the EWMA is aged as if the
    packets the link *could* have served while idle had all sampled an
    empty queue.  Without this the average stays stale-high across idle
    gaps and RED over-drops the first packets of the next burst.

    ECN-capable arrivals the early-drop logic selects are CE-marked and
    admitted instead of dropped; buffer-overflow drops are never marked.

    Parameters
    ----------
    min_threshold, max_threshold:
        EWMA occupancy thresholds as fractions of ``buffer_bytes``.
    max_drop_probability:
        Drop probability when the average reaches ``max_threshold``.
    weight:
        EWMA weight for each arrival's occupancy sample.
    seed:
        Seed of the private drop-decision RNG.
    """

    name = "red"
    uses_seed = True

    def __init__(
        self,
        scheduler: EventScheduler,
        rate_bps: float,
        buffer_bytes: float,
        on_departure: Callable[[Packet, float], None],
        on_drop: Callable[[Packet, float], None],
        min_threshold: float = 0.25,
        max_threshold: float = 0.75,
        max_drop_probability: float = 0.1,
        weight: float = 0.02,
        seed: int = 0,
    ):
        super().__init__(scheduler, rate_bps, buffer_bytes, on_departure, on_drop)
        if not 0.0 <= min_threshold < max_threshold <= 1.0:
            raise ValueError("need 0 <= min_threshold < max_threshold <= 1")
        if not 0.0 < max_drop_probability <= 1.0:
            raise ValueError("max_drop_probability must be in (0, 1]")
        if not 0.0 < weight <= 1.0:
            raise ValueError("weight must be in (0, 1]")
        self._min_bytes = min_threshold * self._buffer_bytes
        self._max_bytes = max_threshold * self._buffer_bytes
        self._max_p = float(max_drop_probability)
        self._weight = float(weight)
        self._rng = random.Random(seed)
        self._avg_bytes = 0.0
        self._count = -1  # arrivals since the last drop (classic RED spreading)
        self._idle_since: float | None = 0.0  # the queue starts empty and idle

    def _became_idle(self, now: float) -> None:
        self._idle_since = now

    def _on_arrival(self, packet: Packet, now: float) -> None:
        if self._idle_since is not None:
            # Floyd & Jacobson idle-time correction: age the average by the
            # number of (this-sized) packets the link could have served
            # while the queue sat empty, each sampling occupancy zero.
            idle_s = now - self._idle_since
            if idle_s > 0.0:
                could_have_served = idle_s / self.transmission_time(packet)
                self._avg_bytes *= (1.0 - self._weight) ** could_have_served
            self._idle_since = None
        self._avg_bytes += self._weight * (self._queued_bytes - self._avg_bytes)

    def _admit(self, packet: Packet, now: float) -> bool:
        if self._queued_bytes + packet.size_bytes > self._buffer_bytes:
            self._count = 0
            return False
        if self._avg_bytes < self._min_bytes:
            self._count = -1
            return True
        if self._avg_bytes >= self._max_bytes:
            self._count = 0
            return self._mark_or_refuse(packet, now)
        self._count += 1
        p_b = self._max_p * (self._avg_bytes - self._min_bytes) / (
            self._max_bytes - self._min_bytes
        )
        p_a = p_b / max(1.0 - self._count * p_b, 1e-9)
        if self._rng.random() < p_a:
            self._count = 0
            return self._mark_or_refuse(packet, now)
        return True


class _CoDelControl:
    """CoDel's drop-decision state machine (RFC 8289), shared machinery.

    One instance controls one FIFO: :class:`CoDelQueue` owns a single
    instance, :class:`FqCoDelQueue` one per sub-queue.  The caller feeds
    it each dequeued packet's sojourn time and the backlog remaining
    behind it; ``should_drop`` answers whether that packet is punished
    (dropped, or CE-marked when the flow negotiated ECN).
    """

    __slots__ = (
        "target_s",
        "interval_s",
        "min_backlog_bytes",
        "first_above_time",
        "dropping",
        "drop_next",
        "count",
    )

    def __init__(self, target_s: float, interval_s: float, min_backlog_bytes: float):
        self.target_s = float(target_s)
        self.interval_s = float(interval_s)
        self.min_backlog_bytes = float(min_backlog_bytes)
        self.first_above_time = 0.0
        self.dropping = False
        self.drop_next = 0.0
        self.count = 0

    def _control_law(self, t: float) -> float:
        return t + self.interval_s / math.sqrt(self.count)

    def should_drop(self, sojourn_s: float, now: float, backlog_bytes: float) -> bool:
        """CoDel's control law: whether to drop the packet dequeued now."""
        # ``ok``: the sojourn has stayed above target for a full interval
        # (and the backlog exceeds the floor).
        if sojourn_s < self.target_s or backlog_bytes <= self.min_backlog_bytes:
            self.first_above_time = 0.0
            ok = False
        elif self.first_above_time == 0.0:
            self.first_above_time = now + self.interval_s
            ok = False
        else:
            ok = now >= self.first_above_time
        if self.dropping:
            if not ok:
                self.dropping = False
                return False
            if now >= self.drop_next:
                self.count += 1
                self.drop_next = self._control_law(self.drop_next)
                return True
            return False
        if ok:
            self.dropping = True
            # Re-entering a recent dropping episode resumes at a higher
            # drop frequency instead of restarting from one.
            if now - self.drop_next < self.interval_s:
                self.count = max(self.count - 2, 1)
            else:
                self.count = 1
            self.drop_next = self._control_law(now)
            return True
        return False


class CoDelQueue(QueueDiscipline):
    """Controlled Delay AQM (Nichols & Jacobson, RFC 8289), simplified.

    Measures each packet's sojourn time at dequeue.  Once the sojourn has
    stayed above ``target_delay_s`` for a full ``interval_s`` the queue
    enters the dropping state and drops packets at increasing frequency
    (``interval / sqrt(count)``) until the delay falls back below target.
    ECN-capable packets selected by the control law are CE-marked and
    served instead of dropped.  Arrivals are only refused by the hard
    ``buffer_bytes`` limit.

    Parameters
    ----------
    target_delay_s:
        Acceptable standing queue delay (default 5 ms).
    interval_s:
        Sliding window over which the delay must persist (default 100 ms).
    min_backlog_bytes:
        Never drop while the backlog is at or below this (one MTU).
    """

    name = "codel"

    def __init__(
        self,
        scheduler: EventScheduler,
        rate_bps: float,
        buffer_bytes: float,
        on_departure: Callable[[Packet, float], None],
        on_drop: Callable[[Packet, float], None],
        target_delay_s: float = 0.005,
        interval_s: float = 0.1,
        min_backlog_bytes: float = 1500.0,
    ):
        super().__init__(scheduler, rate_bps, buffer_bytes, on_departure, on_drop)
        if target_delay_s <= 0 or interval_s <= 0:
            raise ValueError("target_delay_s and interval_s must be positive")
        self._codel = _CoDelControl(target_delay_s, interval_s, min_backlog_bytes)

    def _admit(self, packet: Packet, now: float) -> bool:
        return self._queued_bytes + packet.size_bytes <= self._buffer_bytes

    def _next_packet(self, now: float) -> Packet | None:
        while self._queue:
            packet, arrival = self._queue.popleft()
            self._queued_bytes -= packet.size_bytes
            if self._codel.should_drop(now - arrival, now, self._queued_bytes):
                if packet.ecn_capable:
                    self._mark(packet, now)
                    return packet
                self._drop(packet, now)
                continue
            return packet
        return None


class FqCoDelQueue(QueueDiscipline):
    """Per-flow fair queueing with CoDel on every sub-queue (RFC 8290 style).

    Each flow gets its own FIFO sub-queue; sub-queues are served by
    deficit round-robin (one ``quantum_bytes`` of credit per round) and
    each runs its own :class:`_CoDelControl` on the sojourn times of its
    packets.  A backlogged flow therefore cannot inflate another flow's
    delay or claim more than its round-robin share — the per-flow
    isolation the paper predicts would *eliminate* the connection-count
    A/B bias when sub-queues coincide with experimental units.

    The flow classifier is pluggable (``flow_key``): standalone queues
    default to one sub-queue per ``Packet.flow_id`` (per connection);
    the :class:`~repro.netsim.packet.network.Network` builder supplies a
    per-application classifier instead, so every experimental unit gets
    exactly one sub-queue regardless of how many connections it opens
    (per-user fair queueing, the paper's falsifiable prediction).

    When an arrival would overflow the hard ``buffer_bytes`` limit, the
    queue drops from the head of the *fattest* sub-queue (RFC 8290
    §4.1.3) until the arrival fits — so a flow overrunning its share
    fills the buffer at its own expense, never at its neighbours'.

    Per RFC 8290 §4.1, sub-queues live on two lists: a sub-queue created
    by an arriving packet joins the *new* list, which is served strictly
    before the *old* list — a freshly started flow's first packets skip
    ahead of established backlogs.  The priority is bounded to one
    quantum: as soon as a new sub-queue exhausts its deficit (or drains
    empty) it moves to the tail of the old list, so a torrent of packets
    on a "new" flow cannot starve the old flows (the starvation
    regression test pins this).  An old sub-queue found empty at its
    service turn is retired.

    Parameters
    ----------
    target_delay_s, interval_s, min_backlog_bytes:
        Per-sub-queue CoDel parameters (see :class:`CoDelQueue`); the
        backlog floor applies to the packet's own sub-queue.
    quantum_bytes:
        Deficit round-robin credit granted per round (default one MTU).
    flow_key:
        Classifier mapping a packet to its sub-queue key; defaults to
        ``Packet.flow_id``.
    """

    name = "fq_codel"
    uses_flow_key = True

    def __init__(
        self,
        scheduler: EventScheduler,
        rate_bps: float,
        buffer_bytes: float,
        on_departure: Callable[[Packet, float], None],
        on_drop: Callable[[Packet, float], None],
        target_delay_s: float = 0.005,
        interval_s: float = 0.1,
        min_backlog_bytes: float = 1500.0,
        quantum_bytes: float = 1500.0,
        flow_key: Callable[[Packet], int] | None = None,
    ):
        super().__init__(scheduler, rate_bps, buffer_bytes, on_departure, on_drop)
        if target_delay_s <= 0 or interval_s <= 0:
            raise ValueError("target_delay_s and interval_s must be positive")
        if quantum_bytes <= 0:
            raise ValueError("quantum_bytes must be positive")
        self._target_s = float(target_delay_s)
        self._interval_s = float(interval_s)
        self._min_backlog_bytes = float(min_backlog_bytes)
        self._quantum = float(quantum_bytes)
        self._flow_key = flow_key if flow_key is not None else self._default_flow_key
        #: Waiting packets per sub-queue key, each with its arrival time.
        self._subqueues: dict[int, deque[tuple[Packet, float]]] = {}
        #: Bytes waiting per sub-queue key.
        self._sub_bytes: dict[int, float] = {}
        #: Deficit round-robin credit per active sub-queue key.
        self._deficits: dict[int, float] = {}
        #: Sub-queues awaiting their one priority round (RFC 8290 new list).
        self._new_flows: deque[int] = deque()
        #: Established sub-queues in round-robin order (RFC 8290 old list).
        self._old_flows: deque[int] = deque()
        #: CoDel state per sub-queue key (persists across idle periods).
        self._codel: dict[int, _CoDelControl] = {}

    @staticmethod
    def _default_flow_key(packet: Packet) -> int:
        return packet.flow_id

    @property
    def occupancy_packets(self) -> int:
        """Packets currently waiting across all sub-queues."""
        return sum(len(sub) for sub in self._subqueues.values())

    def _admit(self, packet: Packet, now: float) -> bool:
        if packet.size_bytes > self._buffer_bytes:
            return False  # can never fit; don't evict anyone else's backlog
        # On overflow, make room by dropping from the head of the fattest
        # sub-queue (RFC 8290): the overrunning flow pays for the burst.
        while self._queued_bytes + packet.size_bytes > self._buffer_bytes:
            victim_key = max(
                self._sub_bytes, key=self._sub_bytes.__getitem__, default=None
            )
            if victim_key is None or not self._subqueues[victim_key]:
                return False  # nothing to evict (oversized arrival)
            victim, _ = self._subqueues[victim_key].popleft()
            self._sub_bytes[victim_key] -= victim.size_bytes
            self._queued_bytes -= victim.size_bytes
            self._drop(victim, now)
        return True

    def _enqueue_packet(self, packet: Packet, now: float) -> None:
        key = self._flow_key(packet)
        sub = self._subqueues.get(key)
        if sub is None:
            # A sub-queue born from an arrival enters the *new* list: it
            # gets one deficit round of strict priority over old flows.
            sub = self._subqueues[key] = deque()
            self._sub_bytes[key] = 0.0
            self._deficits[key] = self._quantum
            self._new_flows.append(key)
            if key not in self._codel:
                self._codel[key] = _CoDelControl(
                    self._target_s, self._interval_s, self._min_backlog_bytes
                )
        sub.append((packet, now))
        self._sub_bytes[key] += packet.size_bytes
        self._queued_bytes += packet.size_bytes

    def _retire(self, key: int, now: float) -> None:
        """Drop a drained sub-queue's bookkeeping.

        CoDel state is kept only while it still carries information — an
        open dropping episode, a pending first-above window, or a recent
        ``drop_next`` the resume rule would consult.  Cold state is
        evicted: a returning flow would restart its episode from scratch
        anyway (``should_drop`` resets ``count`` once ``drop_next`` is
        more than an interval old), and under flow churn every spawned
        flow is a brand-new key, so retaining cold state forever would
        grow the dict by one dead entry per churned flow.
        """
        del self._subqueues[key]
        del self._sub_bytes[key]
        del self._deficits[key]
        codel = self._codel[key]
        if (
            not codel.dropping
            and codel.first_above_time == 0.0
            and now - codel.drop_next >= codel.interval_s
        ):
            del self._codel[key]

    def _next_packet(self, now: float) -> Packet | None:
        while self._new_flows or self._old_flows:
            from_new = bool(self._new_flows)
            flows = self._new_flows if from_new else self._old_flows
            key = flows[0]
            sub = self._subqueues[key]
            if not sub:
                flows.popleft()
                if from_new:
                    # An emptied new sub-queue joins the old list instead
                    # of retiring (RFC 8290 §4.1.2): if its flow keeps
                    # sending it must queue behind the old flows rather
                    # than re-enter the priority list every packet.
                    self._old_flows.append(key)
                else:
                    self._retire(key, now)
                continue
            if self._deficits[key] < sub[0][0].size_bytes:
                # Deficit exhausted: refill one quantum and demote to the
                # tail of the old list — a new flow's priority lasts at
                # most one quantum, which is what prevents starvation.
                self._deficits[key] += self._quantum
                flows.popleft()
                self._old_flows.append(key)
                continue
            packet, arrival = sub.popleft()
            self._sub_bytes[key] -= packet.size_bytes
            self._queued_bytes -= packet.size_bytes
            self._deficits[key] -= packet.size_bytes
            if self._codel[key].should_drop(now - arrival, now, self._sub_bytes[key]):
                if packet.ecn_capable:
                    self._mark(packet, now)
                    return packet
                self._drop(packet, now)
                continue
            return packet
        return None


class DualPI2Queue(QueueDiscipline):
    """Dual-queue coupled AQM for L4S (RFC 9332 style, simplified).

    Two FIFOs share one drain rate:

    * the *L queue* holds L4S packets (``Packet.l4s``, the model's stand-
      in for the ECT(1) codepoint) and signals congestion by CE-marking
      only — a *step* mark once a packet's sojourn reaches the shallow
      ``step_threshold_s``, plus probabilistic marks coupled to classic-
      queue pressure;
    * the *classic queue* holds everything else and runs a PI2
      controller: a Proportional-Integral law updates a base probability
      ``p`` every ``t_update_s`` from the queue's head sojourn time, and
      packets are dropped at dequeue with probability ``p**2`` (CE-marked
      instead when the flow negotiated classic ECN — same squared law).

    The square is the RFC 9332 *coupling law*: the L queue marks with
    probability ``coupling * p`` while the classic queue drops with
    ``p**2``, so a window-halving classic flow (rate ∝ 1/sqrt(p_C)) and a
    fraction-responding L4S flow (rate ∝ 1/p_L) converge on the same
    per-flow rate — signal-based fairness, where FQ-CoDel's is
    scheduling-based.

    Scheduling between the queues is credit-based weighted round robin:
    the L queue has near-priority, but while both queues are backlogged
    the classic queue is guaranteed a ``classic_share_min`` fraction of
    the link, so unresponsive L traffic cannot starve it.  The hard
    ``buffer_bytes`` limit is shared and overflow drops are never marked.
    RFC 9332's overload machinery (dropping from the L queue when ``p``
    saturates) is not modelled: the hard limit bounds the damage and lab
    flows are responsive.

    All randomness (the drop/mark lotteries) comes from ``seed``, so a
    DualPI2 simulation is a pure function of its inputs.

    Parameters
    ----------
    target_delay_s:
        Classic-queue delay the PI controller steers toward (default
        15 ms, the RFC's reference).
    t_update_s:
        Period of the PI probability update (default 16 ms).  Updates are
        applied lazily (catching up on arrivals/dequeues), which is
        equivalent for the event-driven queue and keeps the scheduler
        free of timer events.
    alpha, beta:
        PI integral / proportional gains: each update adds
        ``alpha * (qdelay - target) + beta * (qdelay - prev_qdelay)`` to
        the base probability, delays in seconds.  The defaults are
        RFC 9332 Appendix A's recommendation for a 16 ms update period
        (``alpha = 0.1 * t_update / rtt_max**2``, ``beta =
        0.3 / rtt_max`` at ``rtt_max`` = 100 ms).
    coupling:
        Coupling factor ``k``: L-queue mark probability is
        ``min(coupling * p, 1)`` (default 2, the RFC's recommendation).
    step_threshold_s:
        Sojourn threshold of the L queue's step marking (default 1 ms).
    classic_share_min:
        Link share guaranteed to the classic queue while both queues are
        backlogged (default 5 %).
    seed:
        Seed of the private drop/mark-decision RNG.
    """

    name = "dualpi2"
    uses_seed = True

    def __init__(
        self,
        scheduler: EventScheduler,
        rate_bps: float,
        buffer_bytes: float,
        on_departure: Callable[[Packet, float], None],
        on_drop: Callable[[Packet, float], None],
        target_delay_s: float = 0.015,
        t_update_s: float = 0.016,
        alpha: float = 0.16,
        beta: float = 3.2,
        coupling: float = 2.0,
        step_threshold_s: float = 0.001,
        classic_share_min: float = 0.05,
        seed: int = 0,
    ):
        super().__init__(scheduler, rate_bps, buffer_bytes, on_departure, on_drop)
        if target_delay_s <= 0 or t_update_s <= 0:
            raise ValueError("target_delay_s and t_update_s must be positive")
        if alpha < 0 or beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if coupling <= 0:
            raise ValueError("coupling must be positive")
        if step_threshold_s <= 0:
            raise ValueError("step_threshold_s must be positive")
        if not 0.0 < classic_share_min < 1.0:
            raise ValueError("classic_share_min must be in (0, 1)")
        self._target_s = float(target_delay_s)
        self._t_update = float(t_update_s)
        self._alpha = float(alpha)
        self._beta = float(beta)
        self._coupling = float(coupling)
        self._step_s = float(step_threshold_s)
        self._c_share = float(classic_share_min)
        self._rng = random.Random(seed)

        #: Waiting packets per traffic class, each with its arrival time.
        self._l_queue: deque[tuple[Packet, float]] = deque()
        self._c_queue: deque[tuple[Packet, float]] = deque()
        self._l_bytes = 0.0
        self._c_bytes = 0.0

        # PI2 controller state.
        self._base_p = 0.0
        self._prev_qdelay = 0.0
        self._last_update = 0.0

        # WRR credit: serve L while >= 0 (and L is backlogged); only
        # biased while both queues compete, so it cannot drift unbounded.
        self._wrr_credit = 0.0

        #: CE marks issued by the L queue (step + coupled lottery).
        self.packets_marked_l = 0
        #: CE marks issued by the classic queue (squared law, ECN flows).
        self.packets_marked_c = 0

    # -- controller ------------------------------------------------------------

    @property
    def base_probability(self) -> float:
        """The PI controller's current base probability ``p``."""
        return self._base_p

    def classic_drop_probability(self) -> float:
        """Drop (or classic-mark) probability of the classic queue: ``p**2``."""
        return min(self._base_p * self._base_p, 1.0)

    def l4s_mark_probability(self) -> float:
        """Coupled mark probability of the L queue: ``min(k * p, 1)``."""
        return min(self._coupling * self._base_p, 1.0)

    def _classic_qdelay(self, now: float) -> float:
        """Sojourn time of the classic queue's head packet (0 when empty).

        Head sojourn — not backlog over rate — so the controller sees the
        delay the WRR scheduler actually imposes while the L queue is
        taking its share.
        """
        if not self._c_queue:
            return 0.0
        return now - self._c_queue[0][1]

    def _maybe_update(self, now: float) -> None:
        """Catch the PI controller up to ``now`` in ``t_update`` steps."""
        steps = int((now - self._last_update) / self._t_update)
        if steps <= 0:
            return
        qdelay = self._classic_qdelay(now)
        for _ in range(steps):
            self._base_p += self._alpha * (qdelay - self._target_s)
            self._base_p += self._beta * (qdelay - self._prev_qdelay)
            self._base_p = min(max(self._base_p, 0.0), 1.0)
            self._prev_qdelay = qdelay
        self._last_update += steps * self._t_update

    # -- discipline hooks ------------------------------------------------------

    @property
    def occupancy_packets(self) -> int:
        """Packets currently waiting across both queues."""
        return len(self._l_queue) + len(self._c_queue)

    def _on_arrival(self, packet: Packet, now: float) -> None:
        self._maybe_update(now)

    def _admit(self, packet: Packet, now: float) -> bool:
        return self._queued_bytes + packet.size_bytes <= self._buffer_bytes

    def _enqueue_packet(self, packet: Packet, now: float) -> None:
        if packet.l4s and packet.ecn_capable:
            self._l_queue.append((packet, now))
            self._l_bytes += packet.size_bytes
        else:
            self._c_queue.append((packet, now))
            self._c_bytes += packet.size_bytes
        self._queued_bytes += packet.size_bytes

    def _next_packet(self, now: float) -> Packet | None:
        self._maybe_update(now)
        while self._l_queue or self._c_queue:
            serve_l = bool(self._l_queue) and (
                not self._c_queue or self._wrr_credit >= 0.0
            )
            if serve_l:
                packet, arrival = self._l_queue.popleft()
                self._l_bytes -= packet.size_bytes
                self._queued_bytes -= packet.size_bytes
                if self._c_queue:
                    self._wrr_credit -= self._c_share * packet.size_bytes
                if (now - arrival) >= self._step_s or (
                    self._base_p > 0.0
                    and self._rng.random() < self.l4s_mark_probability()
                ):
                    self._mark(packet, now)
                    self.packets_marked_l += 1
                return packet
            packet, arrival = self._c_queue.popleft()
            self._c_bytes -= packet.size_bytes
            self._queued_bytes -= packet.size_bytes
            p_c = self.classic_drop_probability()
            if p_c > 0.0 and self._rng.random() < p_c:
                if not packet.ecn_capable:
                    self._drop(packet, now)
                    continue
                self._mark(packet, now)
                self.packets_marked_c += 1
            if self._l_queue:
                # Credit only packets that actually transmit: a dequeue-
                # dropped classic packet must not buy the L queue service
                # time, or the classic_share_min guarantee would erode by
                # the classic drop rate.
                self._wrr_credit += (1.0 - self._c_share) * packet.size_bytes
            return packet
        return None


#: Queue disciplines selectable by name in scenario specs.
QUEUE_DISCIPLINES: dict[str, type[QueueDiscipline]] = {
    DropTailQueue.name: DropTailQueue,
    REDQueue.name: REDQueue,
    CoDelQueue.name: CoDelQueue,
    FqCoDelQueue.name: FqCoDelQueue,
    DualPI2Queue.name: DualPI2Queue,
}


def make_queue(
    discipline: str,
    scheduler: EventScheduler,
    rate_bps: float,
    buffer_bytes: float,
    on_departure: Callable[[Packet, float], None],
    on_drop: Callable[[Packet, float], None],
    **params: float,
) -> QueueDiscipline:
    """Construct a queue discipline by registry name.

    ``params`` are forwarded to the discipline's constructor (thresholds,
    target delay, seed, ...); passing a parameter the discipline does not
    accept raises ``TypeError``.
    """
    try:
        cls = QUEUE_DISCIPLINES[discipline]
    except KeyError:
        raise ValueError(
            f"unknown queue discipline {discipline!r}; "
            f"expected one of {sorted(QUEUE_DISCIPLINES)}"
        ) from None
    return cls(scheduler, rate_bps, buffer_bytes, on_departure, on_drop, **params)
