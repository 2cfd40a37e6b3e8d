"""Packet representation for the packet-level simulator."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Packet", "PacketPool"]


@dataclass
class Packet:
    """A data packet in flight.

    Attributes
    ----------
    flow_id:
        Identifier of the sending flow.
    sequence:
        Sequence number of the packet within its flow (counts packets, not
        bytes).
    size_bytes:
        Packet size in bytes (MTU-sized for bulk transfers; ``segments``
        times the MSS for a macro-packet).
    send_time:
        Simulation time at which the sender transmitted the packet.
    is_retransmission:
        True when the packet retransmits previously lost data.
    ecn_capable:
        True when the sending flow negotiated ECN: AQM queues may CE-mark
        this packet instead of dropping it.
    l4s:
        True when the sending flow negotiated the L4S service (the ECT(1)
        codepoint of RFC 9331): a dual-queue AQM classifies the packet
        into its low-latency queue and marks it at a shallow threshold.
        Implies ``ecn_capable``.
    ce_marked:
        Congestion Experienced: set by a queue that would otherwise have
        dropped the packet (classic ECN) or whose marking law selected it
        (L4S); echoed back to the sender with the ack.
    segments:
        Number of MSS-sized segments this packet stands for.  1 for a
        normal packet; greater than 1 for a *macro-packet* built by a
        sender running with event batching, where one simulated packet
        (one enqueue, one service completion, one ack or loss event)
        carries a burst of k segments.  Per-segment counters scale by
        this value; ``size_bytes`` is ``segments * mss``.
    """

    flow_id: int
    sequence: int
    size_bytes: int
    send_time: float
    is_retransmission: bool = False
    ecn_capable: bool = False
    l4s: bool = False
    ce_marked: bool = False
    segments: int = 1


class PacketPool:
    """A freelist of :class:`Packet` objects.

    The hot path creates one ``Packet`` per send and drops it one RTT
    later when the ack (or loss notification) is consumed — perfect
    churn for a freelist.  :meth:`acquire` reuses a retired instance
    when one is available, overwriting *every* field, so a pooled packet
    is indistinguishable from a freshly constructed one and results stay
    bit-identical.  :meth:`release` is only safe on packets that have
    left the simulation for good; the network calls it after the ack or
    loss handler ran (each packet terminates in exactly one of the two).
    """

    def __init__(self) -> None:
        self._free: list[Packet] = []
        #: Lifetime counters, exposed for tests and the performance docs.
        self.acquired = 0
        self.reused = 0

    def acquire(
        self,
        flow_id: int,
        sequence: int,
        size_bytes: int,
        send_time: float,
        is_retransmission: bool = False,
        ecn_capable: bool = False,
        l4s: bool = False,
        segments: int = 1,
    ) -> Packet:
        """Return a packet with the given fields, reusing a retired slot."""
        self.acquired += 1
        free = self._free
        if free:
            self.reused += 1
            packet = free.pop()
            packet.flow_id = flow_id
            packet.sequence = sequence
            packet.size_bytes = size_bytes
            packet.send_time = send_time
            packet.is_retransmission = is_retransmission
            packet.ecn_capable = ecn_capable
            packet.l4s = l4s
            packet.ce_marked = False
            packet.segments = segments
            return packet
        return Packet(
            flow_id=flow_id,
            sequence=sequence,
            size_bytes=size_bytes,
            send_time=send_time,
            is_retransmission=is_retransmission,
            ecn_capable=ecn_capable,
            l4s=l4s,
            segments=segments,
        )

    def release(self, packet: Packet) -> None:
        """Retire ``packet`` to the freelist for later reuse."""
        self._free.append(packet)

    def __len__(self) -> int:
        """Number of retired packets currently available for reuse."""
        return len(self._free)
