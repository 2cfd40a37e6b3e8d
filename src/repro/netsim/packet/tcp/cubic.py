"""TCP Cubic congestion control (simplified).

Cubic grows the window as a cubic function of the time since the last loss
event:

.. math:: W(t) = C (t - K)^3 + W_{max}, \\qquad K = \\sqrt[3]{W_{max} \\beta / C}

where ``W_max`` is the window at the last loss, ``beta = 0.3`` is the
multiplicative-decrease fraction (window shrinks to 0.7 W_max) and
``C = 0.4`` is the standard aggressiveness constant.  Slow start behaves
like Reno.  TCP-friendliness (the Reno-emulation lower bound) is included
because it dominates at small windows.
"""

from __future__ import annotations

from repro.netsim.packet.packets import Packet
from repro.netsim.packet.tcp.base import TcpSender

__all__ = ["CubicSender"]


class CubicSender(TcpSender):
    """Cubic window growth with multiplicative decrease 0.7."""

    #: Cubic aggressiveness constant (packets / s^3).
    C = 0.4
    #: Multiplicative decrease: window shrinks to (1 - BETA) * W_max.
    BETA = 0.3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._w_max = self.cwnd
        self._epoch_start: float | None = None
        self._k = 0.0
        # Reno-emulation state for the TCP-friendly region.
        self._w_tcp = self.cwnd

    def _begin_epoch(self) -> None:
        self._epoch_start = self.scheduler.now
        self._w_tcp = self.cwnd
        if self.cwnd < self._w_max:
            self._k = ((self._w_max - self.cwnd) / self.C) ** (1.0 / 3.0)
        else:
            self._k = 0.0
            self._w_max = self.cwnd

    def on_ack(self, packet: Packet, rtt_sample: float, segments: int) -> None:
        """Step the window toward the cubic target W(t) for ``segments`` acks.

        Each ack spreads the gap to the target over the acks of one RTT.
        The target depends only on the epoch clock, not on the ack count,
        so a macro-packet evaluates it once and takes n steps of the same
        spread toward it — clamped at the target, exactly where n per-ack
        steps would converge.  The TCP-friendly floor (Reno emulation)
        advances by n acks' worth in one update.
        """
        if self.in_slow_start:
            headroom = max(self.ssthresh - self.cwnd, 0.0)
            ss_acks = min(float(segments), headroom)
            self.cwnd += ss_acks
            segments -= int(ss_acks)
            if segments <= 0:
                return
        if self._epoch_start is None:
            self._begin_epoch()
        t = self.scheduler.now - (self._epoch_start or self.scheduler.now)
        target = self.C * (t - self._k) ** 3 + self._w_max
        self._w_tcp += segments * 3.0 * self.BETA / (2.0 - self.BETA) / max(self.cwnd, 1.0)
        target = max(target, self._w_tcp)
        if target > self.cwnd:
            self.cwnd = min(
                self.cwnd + segments * (target - self.cwnd) / max(self.cwnd, 1.0),
                target,
            )
        else:
            self.cwnd += segments * 0.01 / max(self.cwnd, 1.0)

    def on_loss(self, packet: Packet) -> None:
        """Multiplicative decrease by BETA and start a new cubic epoch."""
        self._w_max = self.cwnd
        self.cwnd = max(self.cwnd * (1.0 - self.BETA), self.MIN_CWND)
        self.ssthresh = self.cwnd
        self._epoch_start = None

    def on_l4s_mark(self, packet: Packet) -> None:
        """The proportional DCTCP cut, plus a cubic epoch reset.

        Without the reset the old trajectory's target would immediately
        re-inflate the window and neuter the mark.
        """
        self._w_max = self.cwnd
        super().on_l4s_mark(packet)
        self._epoch_start = None
