"""TCP Reno (NewReno-style) congestion control.

Slow start doubles the window every round trip (one packet per ack);
congestion avoidance adds one packet per round trip (``1/cwnd`` per ack);
a loss halves the window and sets the slow-start threshold to the new
window (fast-recovery style, no timeout modelling).
"""

from __future__ import annotations

from repro.netsim.packet.packets import Packet
from repro.netsim.packet.tcp.base import TcpSender

__all__ = ["RenoSender"]


class RenoSender(TcpSender):
    """Additive-increase / multiplicative-decrease (factor 0.5) sender."""

    #: Multiplicative decrease factor applied on loss.
    BETA = 0.5

    def on_ack(self, packet: Packet, rtt_sample: float, segments: int) -> None:
        """AIMD growth for ``segments`` acks, in O(1).

        Slow start adds one packet per ack; congestion avoidance adds
        ``n/cwnd`` in a single step — exactly ``1/cwnd`` for one ack,
        and the first-order form of n repeated ``1/cwnd`` increments for
        a macro-packet (the higher-order correction is O(n²/cwnd³) and
        far below the batching tolerance).  A batch straddling the
        slow-start exit splits at the threshold.
        """
        if self.in_slow_start:
            headroom = max(self.ssthresh - self.cwnd, 0.0)
            ss_acks = min(float(segments), headroom)
            self.cwnd += ss_acks
            segments -= int(ss_acks)
            if segments <= 0:
                return
        self.cwnd += segments / max(self.cwnd, 1.0)

    def on_loss(self, packet: Packet) -> None:
        """Multiplicative decrease: halve the window (floor MIN_CWND)."""
        self.ssthresh = max(self.cwnd * self.BETA, self.MIN_CWND)
        self.cwnd = self.ssthresh
