"""Common sender machinery shared by all congestion-control algorithms.

By default the sender models a bulk transfer with unlimited data: it
always has packets to send and is only limited by its congestion window
(and, when pacing is enabled, its pacing rate).  A *finite* transfer
(``transfer_bytes``) instead sends exactly that much data, completes when
the last byte is acknowledged — recording its completion time (the
network reads it when assembling results; the optional ``on_complete``
hook surfaces the event to interested callers) — and never transmits
again (stale feedback after completion is ignored).  The surrounding simulation
delivers two kinds of feedback:

* :meth:`TcpSender.handle_ack` when a packet was delivered (one RTT after
  it left the bottleneck, including any queueing delay it experienced);
* :meth:`TcpSender.handle_loss` when a packet was dropped at the bottleneck
  (notification arrives roughly one RTT later, standing in for duplicate
  ACK detection).

Subclasses implement :meth:`TcpSender.on_ack` and :meth:`TcpSender.on_loss`
to update the congestion window — each law written once, for an ack of
any number of segments (one, or a macro-packet's burst under event
batching) — and may override
:meth:`TcpSender.current_pacing_rate_bps` to pace at an algorithm-specific
rate (BBR always paces; Reno/Cubic pace only when Linux-style ``fq`` pacing
is enabled for the flow).

Flows that negotiated ECN (``ecn=True`` or ``ecn="classic"``) send
ECN-capable packets; an AQM queue may CE-mark such a packet instead of
dropping it.  The mark comes back with the ack and triggers
:meth:`TcpSender.on_ecn_mark` — a window reduction like a loss, but with
**no retransmission** (the marked packet was delivered), and at most once
per RTT (RFC 3168's one-reduction-per-window rule).  Marks therefore
reduce throughput without moving the retransmit counters, decoupling the
two observables.

``ecn="l4s"`` selects the scalable DCTCP/Prague response instead: the
sender tracks the fraction of acked packets that carried CE over each
RTT, folds it into an EWMA (``l4s_alpha``, DCTCP's alpha), and reacts to
marks with a *proportional* cut — ``cwnd -= cwnd * alpha / 2`` — rather
than the classic halving, still at most once per RTT.  Fine-grained
marking (many small signals) then steers the window smoothly instead of
sawtoothing it.  L4S packets carry the ``l4s`` flag (the model's ECT(1)),
which a dual-queue AQM uses to classify them into its low-latency queue.
BBR overrides :meth:`TcpSender.on_ecn_mark` to ignore marks in both
modes, exactly as it ignores loss.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.netsim.packet.engine import EventScheduler
from repro.netsim.packet.packets import Packet, PacketPool

__all__ = ["TcpSender", "normalize_ecn"]


def normalize_ecn(ecn: bool | str | None) -> str | None:
    """Normalize an ECN negotiation flag to its response mode.

    The single source of truth for the accepted values — ``False`` /
    ``None`` (no ECN, returns ``None``), ``True`` / ``"classic"`` (the
    RFC 3168 response, returns ``"classic"``) and ``"l4s"`` (the
    DCTCP/Prague response).  Identity checks, not equality: ``0``/``1``
    (or numpy bools) are rejected here, at configuration time, rather
    than surviving into the simulation.
    """
    if ecn is True:
        return "classic"
    if ecn is False or ecn is None:
        return None
    if isinstance(ecn, str) and ecn in ("classic", "l4s"):
        return ecn
    raise ValueError(f"ecn must be a bool, 'classic' or 'l4s'; got {ecn!r}")


class TcpSender:
    """Base class for simplified TCP senders.

    Parameters
    ----------
    flow_id:
        Identifier of the flow.
    scheduler:
        The simulation's event scheduler.
    transmit:
        Callable that injects a packet into the network (the bottleneck
        queue in the single-link topology).
    mss_bytes:
        Segment size in bytes.
    base_rtt_s:
        Two-way propagation delay, in seconds, excluding queueing.
    paced:
        Whether the flow paces its packets (Linux ``fq`` style) instead of
        sending ack-clocked bursts.
    ecn:
        ECN negotiation: ``False`` (default) disables ECN; ``True`` or
        ``"classic"`` selects the RFC 3168 response (one loss-equivalent
        reduction per RTT on an echoed mark, no retransmission);
        ``"l4s"`` selects the DCTCP/Prague response (marked-fraction EWMA
        driving a proportional cut) and flags the flow's packets as L4S
        so dual-queue AQMs classify them into the low-latency queue.
    initial_cwnd:
        Initial congestion window in packets.
    transfer_bytes:
        Total bytes this flow transfers before completing; ``None``
        (default) models an unlimited bulk transfer.  Data is sent in
        MSS-sized packets, so the transfer is rounded up to whole
        packets; a zero-byte transfer completes the instant it starts.
    batch_segments:
        Event-batching factor.  1 (default) sends one MSS-sized packet
        per simulated packet, exactly as before.  Greater than 1 lets
        the sender coalesce up to that many segments into a single
        *macro-packet* (one enqueue, one service completion, one ack or
        loss event for the whole burst), so a window of k segments costs
        O(k / batch) scheduler events instead of O(k).  Per-segment
        counters (``packets_sent``, ``inflight``, cwnd growth, ...) are
        scaled by each packet's ``segments`` field, and :meth:`on_ack`
        takes the segment count, so a batch of n acks costs O(1) work.
        The congestion *dynamics* are slightly coarser (burstier
        arrivals, burst-granular losses); see ``docs/performance.md``
        for the measured deviations.
    pool:
        :class:`~repro.netsim.packet.packets.PacketPool` to allocate
        packets from (default: a fresh pool of the sender's own).  The
        network builder shares one pool per simulation and recycles
        packets after their ack/loss handler runs; a pooled packet has
        every field rewritten on reuse, so sharing changes no result.
    """

    #: Pacing-rate multiple of cwnd/RTT used during congestion avoidance by
    #: Linux's TCP pacing (tcp_input.c): 1.2 in CA, 2.0 in slow start.
    CA_PACING_GAIN = 1.2
    SS_PACING_GAIN = 2.0

    #: EWMA gain of the L4S marked-fraction estimator (DCTCP's g = 1/16).
    L4S_ALPHA_GAIN = 1.0 / 16.0

    #: Minimum congestion window, in packets, after any window reduction.
    MIN_CWND = 2.0

    #: Event batching keeps at least this many macro-packets per window:
    #: a macro never exceeds window/4, so batching only coalesces when
    #: the window is large and one macro loss never costs more than a
    #: quarter of it.  Small windows degrade gracefully to per-segment
    #: sending (macro size 1 — the exact dynamics).
    MIN_MACROS_PER_WINDOW = 4

    def __init__(
        self,
        flow_id: int,
        scheduler: EventScheduler,
        transmit: Callable[[Packet], None],
        mss_bytes: int = 1500,
        base_rtt_s: float = 0.02,
        paced: bool = False,
        ecn: bool | str = False,
        initial_cwnd: float = 10.0,
        transfer_bytes: float | None = None,
        batch_segments: int = 1,
        pool: PacketPool | None = None,
    ):
        if mss_bytes <= 0:
            raise ValueError("mss_bytes must be positive")
        if base_rtt_s <= 0:
            raise ValueError("base_rtt_s must be positive")
        if initial_cwnd < 1:
            raise ValueError("initial_cwnd must be at least one packet")
        if transfer_bytes is not None and transfer_bytes < 0:
            raise ValueError("transfer_bytes must be non-negative")
        if batch_segments < 1:
            raise ValueError("batch_segments must be at least 1")
        ecn_mode = normalize_ecn(ecn)
        self.flow_id = flow_id
        self.scheduler = scheduler
        self.transmit = transmit
        self.mss_bytes = int(mss_bytes)
        self.base_rtt_s = float(base_rtt_s)
        self.paced = bool(paced)
        self.batch_segments = int(batch_segments)
        self._pool = pool if pool is not None else PacketPool()
        #: Whether the flow negotiated ECN at all (either response mode).
        self.ecn = ecn_mode is not None
        #: ``"classic"`` / ``"l4s"`` / ``None`` (no ECN).
        self.ecn_mode = ecn_mode

        # Congestion state.
        self.cwnd = float(initial_cwnd)
        self.ssthresh = float("inf")
        self.inflight = 0
        self.srtt = base_rtt_s
        self.min_rtt = float("inf")

        # Sequence / retransmission bookkeeping.
        self.next_sequence = 0
        self._pending_retransmissions = 0

        # Finite-transfer lifecycle.  ``None`` packet budget = unlimited.
        self.transfer_bytes = None if transfer_bytes is None else float(transfer_bytes)
        self._transfer_packets = (
            None
            if transfer_bytes is None
            else int(math.ceil(transfer_bytes / self.mss_bytes))
        )
        self._new_packets_sent = 0
        self.completed = False
        self.start_time: float | None = None
        self.completion_time: float | None = None
        #: Optional caller hook, invoked as ``on_complete(sender)`` the
        #: moment a finite transfer is fully acknowledged.  The network
        #: itself reads ``completion_time`` after the run; the hook
        #: exists for callers that need the completion *event* (tests,
        #: custom retirement logic).
        self.on_complete: Callable[[TcpSender], None] | None = None

        # Counters (lifetime).
        self.packets_sent = 0
        self.packets_acked = 0
        self.packets_lost = 0
        self.packets_retransmitted = 0
        self.packets_marked = 0
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.bytes_retransmitted = 0

        # ECN: earliest time the next echoed mark may shrink the window
        # (one reduction per RTT, cf. RFC 3168's once-per-window rule).
        self._ecn_reaction_deadline = 0.0

        # L4S (DCTCP/Prague) response state: an EWMA of the fraction of
        # acked packets carrying CE, updated once per RTT window.  Alpha
        # starts at 1 so the first mark of a flow's life still halves —
        # DCTCP's conservative initialisation.
        self.l4s_alpha = 1.0
        self._alpha_window_end = 0.0
        self._window_acked = 0
        self._window_marked = 0

        # Counters at the start of the measurement window.
        self._measure_start_time = 0.0
        self._bytes_acked_at_start = 0
        self._bytes_sent_at_start = 0
        self._bytes_retx_at_start = 0

        # Pacing state.
        self._next_pacing_time = 0.0
        self._pacing_timer_armed = False

        self._started = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting (sends the initial window).

        A zero-byte finite transfer completes immediately: there is
        nothing to send, so its flow-completion time is exactly zero.
        """
        self._started = True
        self.start_time = self.scheduler.now
        if self._transfer_packets == 0:
            self._complete()
            return
        self._try_send()

    def _complete(self) -> None:
        """Mark a finite transfer as fully delivered and retire."""
        if self.completed:
            return
        self.completed = True
        self.completion_time = self.scheduler.now
        if self.on_complete is not None:
            self.on_complete(self)

    def begin_measurement(self) -> None:
        """Mark the start of the throughput/retransmission measurement window."""
        self._measure_start_time = self.scheduler.now
        self._bytes_acked_at_start = self.bytes_acked
        self._bytes_sent_at_start = self.bytes_sent
        self._bytes_retx_at_start = self.bytes_retransmitted

    # -- metrics ---------------------------------------------------------------

    @property
    def measured_bytes_sent(self) -> int:
        """Bytes sent since :meth:`begin_measurement` (including retransmits)."""
        return self.bytes_sent - self._bytes_sent_at_start

    @property
    def measured_bytes_retransmitted(self) -> int:
        """Retransmitted bytes since :meth:`begin_measurement`."""
        return self.bytes_retransmitted - self._bytes_retx_at_start

    @property
    def measured_bytes_acked(self) -> int:
        """Bytes acknowledged since :meth:`begin_measurement`."""
        return self.bytes_acked - self._bytes_acked_at_start

    def goodput_mbps(self, end_time: float | None = None) -> float:
        """Acked throughput over the measurement window, in Mb/s."""
        end = end_time if end_time is not None else self.scheduler.now
        elapsed = end - self._measure_start_time
        if elapsed <= 0:
            return 0.0
        return self.measured_bytes_acked * 8.0 / elapsed / 1e6

    def retransmit_fraction(self) -> float:
        """Fraction of sent bytes that were retransmissions, over the window."""
        sent = self.measured_bytes_sent
        if sent <= 0:
            return 0.0
        return self.measured_bytes_retransmitted / sent

    def probe_snapshot(self) -> dict[str, float]:
        """Read-only telemetry snapshot for :class:`repro.obs.probe.Probe`.

        Pure reads of public congestion state and lifetime counters
        (``current_pacing_rate_bps`` is a pure function of them), so
        sampling between scheduler chunks cannot perturb the run.
        """
        return {
            "cwnd": float(self.cwnd),
            "srtt_s": float(self.srtt),
            "inflight": float(self.inflight),
            "pacing_rate_bps": float(self.current_pacing_rate_bps()),
            "packets_sent": float(self.packets_sent),
            "packets_lost": float(self.packets_lost),
            "packets_marked": float(self.packets_marked),
            "bytes_acked": float(self.bytes_acked),
        }

    # -- hooks for subclasses ---------------------------------------------------

    def on_ack(self, packet: Packet, rtt_sample: float, segments: int) -> None:
        """Update congestion state after ``packet`` delivered ``segments`` acks.

        ``segments`` is 1 for a plain packet and the burst size for a
        macro-packet; each law handles any count in O(1) (Reno adds
        ``n/cwnd`` in one step; BBR takes one delivery-rate sample for
        the whole burst).
        """
        raise NotImplementedError

    def on_loss(self, packet: Packet) -> None:
        """Update congestion state after a loss."""
        raise NotImplementedError

    def on_ecn_mark(self, packet: Packet) -> None:
        """Update congestion state after an echoed CE mark.

        Classic mode defaults to the subclass's loss response; L4S mode
        dispatches to :meth:`on_l4s_mark` (the proportional DCTCP cut).
        Either way the packet was delivered, so the base class queues no
        retransmission and the retransmit counters stay untouched.
        Rate-based algorithms that ignore loss (BBR) override this to
        ignore marks too, in both modes.
        """
        if self.ecn_mode == "l4s":
            self.on_l4s_mark(packet)
        else:
            self.on_loss(packet)

    def on_l4s_mark(self, packet: Packet) -> None:
        """DCTCP/Prague response: cut the window in proportion to alpha.

        ``cwnd -= cwnd * alpha / 2`` — a halving when marking is
        saturated (alpha = 1), a gentle trim when marks are sparse.
        Subclasses whose growth law keeps extra state (Cubic's epoch)
        extend this to resynchronise that state with the reduced window.
        """
        self.cwnd = max(self.cwnd * (1.0 - self.l4s_alpha / 2.0), self.MIN_CWND)
        self.ssthresh = self.cwnd

    @property
    def in_slow_start(self) -> bool:
        """True while the window is below the slow-start threshold."""
        return self.cwnd < self.ssthresh

    def current_pacing_rate_bps(self) -> float:
        """Pacing rate for paced flows (Linux-style multiple of cwnd/RTT)."""
        gain = self.SS_PACING_GAIN if self.cwnd < self.ssthresh else self.CA_PACING_GAIN
        rtt = self.srtt if self.srtt > 0 else self.base_rtt_s
        return gain * self.cwnd * self.mss_bytes * 8.0 / rtt

    def window_limit(self) -> int:
        """Maximum number of packets allowed in flight right now."""
        limit = int(self.cwnd)
        return 1 if 1 > limit else limit

    # -- feedback from the network ----------------------------------------------

    def handle_ack(self, packet: Packet, rtt_sample: float) -> None:
        """Process an acknowledgment for ``packet``.

        A macro-packet (``packet.segments > 1``) acknowledges its whole
        burst at once: per-segment counters scale by the segment count,
        the RTT sample is taken once, and :meth:`on_ack` grows the window
        for every segment in one call.
        """
        if self.completed:
            return  # stale feedback for an already-finished transfer
        segments = packet.segments
        self.packets_acked += segments
        self.bytes_acked += packet.size_bytes
        inflight = self.inflight - segments
        self.inflight = inflight if inflight > 0 else 0
        if rtt_sample > 0:
            if rtt_sample < self.min_rtt:
                self.min_rtt = rtt_sample
            # Standard EWMA with alpha = 1/8.
            self.srtt = 0.875 * self.srtt + 0.125 * rtt_sample
        if packet.ce_marked:
            # Count the mark before any completion exit so the sender's
            # tally reconciles with the queues' even when the final ack
            # of a finite transfer carries CE.
            self.packets_marked += segments
        if self.ecn_mode == "l4s":
            # Marked-fraction bookkeeping (DCTCP): every acked packet
            # lands in the current RTT window; at the window boundary the
            # observed CE fraction folds into the alpha EWMA.
            self._window_acked += segments
            if packet.ce_marked:
                self._window_marked += segments
            now = self.scheduler.now
            if now >= self._alpha_window_end:
                if self._alpha_window_end > 0.0:
                    fraction = self._window_marked / self._window_acked
                    self.l4s_alpha += self.L4S_ALPHA_GAIN * (
                        fraction - self.l4s_alpha
                    )
                self._window_acked = 0
                self._window_marked = 0
                self._alpha_window_end = now + self.srtt
        if (
            self._transfer_packets is not None
            and self.packets_acked >= self._transfer_packets
        ):
            # Every distinct chunk is delivered exactly once (lost packets
            # never ack; each loss triggers exactly one retransmission),
            # so the acked-packet count reaching the budget means the
            # whole transfer arrived.
            self._complete()
            return
        if packet.ce_marked:
            now = self.scheduler.now
            if now >= self._ecn_reaction_deadline:
                self._ecn_reaction_deadline = now + self.srtt
                self.on_ecn_mark(packet)
        self.on_ack(packet, rtt_sample, segments)
        self._try_send()

    def handle_loss(self, packet: Packet) -> None:
        """Process a loss notification for ``packet``.

        Losing a macro-packet loses its whole burst (the counters scale
        by the segment count, and every segment is queued for
        retransmission) but counts as *one* congestion event — one
        :meth:`on_loss` window reduction — just as a real burst loss
        within a window triggers a single fast-recovery episode.
        """
        if self.completed:
            return  # stale feedback for an already-finished transfer
        segments = packet.segments
        self.packets_lost += segments
        inflight = self.inflight - segments
        self.inflight = inflight if inflight > 0 else 0
        self._pending_retransmissions += segments
        self.on_loss(packet)
        self._try_send()

    # -- transmission -------------------------------------------------------------

    def _batch_size(self) -> int:
        """Segments to coalesce into the next packet (1 without batching).

        A macro-packet never overshoots the congestion window (it is
        capped by the current headroom), never exceeds a quarter of the
        window (``MIN_MACROS_PER_WINDOW`` — so batching engages as the
        window grows and vanishes when it is small), never mixes
        retransmitted and new data, and never runs past a finite
        transfer's budget.

        L4S senders never batch: the DCTCP control law steers on the
        *fraction* of individually marked packets against a shallow,
        sub-RTT marking threshold, and macro-sized bursts both quantise
        that fraction and overrun the threshold, inflating alpha until
        the flow starves (measured: a dualpi2 lab loses half its
        aggregate throughput).  Classic ECN and loss-based feedback
        react once per RTT and are insensitive to the burst granularity.
        """
        if self.batch_segments <= 1 or self.ecn_mode == "l4s":
            return 1
        limit = self.window_limit()
        segments = min(
            self.batch_segments,
            limit - self.inflight,
            limit // self.MIN_MACROS_PER_WINDOW,
        )
        if self._pending_retransmissions > 0:
            segments = min(segments, self._pending_retransmissions)
        elif self._transfer_packets is not None:
            segments = min(segments, self._transfer_packets - self._new_packets_sent)
        return max(segments, 1)

    def _send_one(self) -> Packet:
        """Build the next packet (a retransmission first) and transmit it."""
        segments = 1 if self.batch_segments == 1 else self._batch_size()
        if self._pending_retransmissions > 0:
            self._pending_retransmissions -= segments
            retransmission = True
        else:
            retransmission = False
            self._new_packets_sent += segments
        size = self.mss_bytes * segments
        packet = self._pool.acquire(
            self.flow_id,
            self.next_sequence,
            size,
            self.scheduler.now,
            retransmission,
            self.ecn,
            self.ecn_mode == "l4s",
            segments,
        )
        self.next_sequence += 1
        self.packets_sent += segments
        self.bytes_sent += size
        if retransmission:
            self.packets_retransmitted += segments
            self.bytes_retransmitted += size
        self.inflight += segments
        self.transmit(packet)
        return packet

    def _can_send(self) -> bool:
        """Whether the window admits one more packet and data remains to send."""
        if not self._started or self.completed or self.inflight >= self.window_limit():
            return False
        return (
            self._pending_retransmissions > 0
            or self._transfer_packets is None
            or self._new_packets_sent < self._transfer_packets
        )

    def _try_send(self) -> None:
        """Send as many packets as the window (and pacing) currently allows."""
        if not self._started or self.completed:
            return
        if self.paced:
            if self._pacing_timer_armed or not self._can_send():
                return
            if self._next_pacing_time > self.scheduler.now:
                self._pacing_timer_armed = True
                self.scheduler.schedule(self._next_pacing_time, self._pacing_timer_fired)
            else:
                self._send_paced_packet()
            return
        # Sending changes neither the window nor a rate estimate (feedback
        # only arrives through scheduled events), so one limit serves the
        # whole burst.
        limit = self.window_limit()
        budget = self._transfer_packets
        while self.inflight < limit and (
            self._pending_retransmissions > 0
            or budget is None
            or self._new_packets_sent < budget
        ):
            self._send_one()

    def _pacing_timer_fired(self) -> None:
        self._pacing_timer_armed = False
        if self._can_send():
            self._send_paced_packet()

    def _send_paced_packet(self) -> None:
        packet = self._send_one()
        rate = self.current_pacing_rate_bps()
        if rate < 1.0:
            rate = 1.0
        # A macro-packet earns a proportionally longer pacing interval,
        # so the paced *byte* rate is unchanged by batching (for a
        # single-segment packet this is exactly the old mss/rate gap).
        interval = packet.size_bytes * 8.0 / rate
        self._next_pacing_time = self.scheduler.now + interval
        if self._can_send():
            self._pacing_timer_armed = True
            self.scheduler.schedule(self._next_pacing_time, self._pacing_timer_fired)
