"""Simplified BBRv1 congestion control.

BBR estimates the bottleneck bandwidth (windowed maximum of per-packet
delivery-rate samples) and the minimum round-trip time, paces at
``pacing_gain * bottleneck_bw`` and caps inflight at
``cwnd_gain * BDP``.  It is loss-agnostic: packet drops do not reduce the
sending rate (they are retransmitted, which is what makes BBRv1 unfair to
loss-based flows in shallow buffers).

Phases implemented:

* **Startup** — gains of 2/ln(2) (~2.89) until the bandwidth estimate stops
  growing for three consecutive round trips.
* **Drain** — one round trip at the inverse gain to empty the queue built
  during startup.
* **ProbeBW** — the standard eight-phase gain cycle
  ``[1.25, 0.75, 1, 1, 1, 1, 1, 1]``, advancing once per min-RTT.

ProbeRTT is omitted: the lab experiments run long-lived flows on a link
whose propagation delay never changes, so min-RTT expiry is irrelevant to
the sharing behaviour under study.
"""

from __future__ import annotations

from collections import deque

from repro.netsim.packet.packets import Packet
from repro.netsim.packet.tcp.base import TcpSender

__all__ = ["BBRSender"]


class BBRSender(TcpSender):
    """Rate-based, loss-agnostic sender modelled on BBRv1."""

    STARTUP_GAIN = 2.885
    DRAIN_GAIN = 1.0 / 2.885
    PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    CWND_GAIN = 2.0
    #: Number of delivery-rate samples kept for the windowed-max filter.
    BW_FILTER_LEN = 10

    def __init__(self, *args, **kwargs):
        # BBR always paces, regardless of the fq setting of the host.
        kwargs["paced"] = True
        super().__init__(*args, **kwargs)
        self._phase = "startup"
        self._pacing_gain = self.STARTUP_GAIN
        self._cwnd_gain = self.STARTUP_GAIN
        self._bw_samples: deque[float] = deque(maxlen=self.BW_FILTER_LEN)
        self._bw_samples.append(self.mss_bytes * 8.0 / self.base_rtt_s * self.cwnd)
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._cycle_index = 0
        self._cycle_start = 0.0
        self._round_start_time = 0.0
        self._delivered_bytes_total = 0
        self._delivered_at_send: dict[int, tuple[int, float]] = {}

    # -- estimators ------------------------------------------------------------

    @property
    def bottleneck_bw_bps(self) -> float:
        """Current windowed-max bottleneck bandwidth estimate, bits/s."""
        return max(self._bw_samples) if self._bw_samples else 0.0

    @property
    def estimated_bdp_packets(self) -> float:
        """Estimated bandwidth-delay product in packets."""
        rtt = self.min_rtt if self.min_rtt != float("inf") else self.base_rtt_s
        return self.bottleneck_bw_bps * rtt / (self.mss_bytes * 8.0)

    # -- TcpSender overrides ------------------------------------------------------

    def current_pacing_rate_bps(self) -> float:
        """Pacing rate: the phase gain times the bottleneck estimate."""
        return max(self._pacing_gain * self.bottleneck_bw_bps, 1e3)

    def window_limit(self) -> int:
        """Inflight cap: the cwnd gain times the estimated BDP."""
        return max(int(self._cwnd_gain * self.estimated_bdp_packets), 4)

    def _send_one(self) -> Packet:  # record delivery state at send time
        self._delivered_at_send[self.next_sequence] = (
            self._delivered_bytes_total,
            self.scheduler.now,
        )
        return super()._send_one()

    def on_ack(self, packet: Packet, rtt_sample: float, segments: int) -> None:
        """Fold one delivery-rate sample into the bandwidth filter.

        BBR's model is byte-based: the packet's full ``size_bytes`` is
        credited to the delivery total, so a macro-packet of any
        ``segments`` count takes exactly one rate sample for its burst.
        """
        self._delivered_bytes_total += packet.size_bytes
        sample = self._delivered_at_send.pop(packet.sequence, None)
        if sample is not None:
            delivered_then, sent_time = sample
            elapsed = self.scheduler.now - sent_time
            if elapsed > 0:
                rate = (self._delivered_bytes_total - delivered_then) * 8.0 / elapsed
                self._bw_samples.append(rate)
        self._update_phase()

    def on_loss(self, packet: Packet) -> None:
        """Drop the stale delivery sample; BBRv1 does not react to loss.

        The packet is retransmitted by the base-class bookkeeping but
        the rate model is unchanged.
        """
        self._delivered_at_send.pop(packet.sequence, None)

    def on_ecn_mark(self, packet: Packet) -> None:
        """Ignore the mark: BBRv1 is ECN-agnostic in both response modes.

        This override bypasses the base class's mode dispatch entirely.
        The marked packet was delivered, so its delivery sample must
        stay for :meth:`on_ack`.
        """

    # -- phase machine -------------------------------------------------------------

    def _update_phase(self) -> None:
        now = self.scheduler.now
        rtt = self.min_rtt if self.min_rtt != float("inf") else self.base_rtt_s

        if now - self._round_start_time >= rtt:
            self._round_start_time = now
            self._on_round_end()

        if self._phase == "probe_bw" and now - self._cycle_start >= rtt:
            self._cycle_start = now
            self._cycle_index = (self._cycle_index + 1) % len(self.PROBE_GAINS)
            self._pacing_gain = self.PROBE_GAINS[self._cycle_index]
            self._cwnd_gain = self.CWND_GAIN

    def _on_round_end(self) -> None:
        if self._phase == "startup":
            bw = self.bottleneck_bw_bps
            if bw > self._full_bw * 1.25:
                self._full_bw = bw
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
            if self._full_bw_rounds >= 3:
                self._phase = "drain"
                self._pacing_gain = self.DRAIN_GAIN
                self._cwnd_gain = self.CWND_GAIN
        elif self._phase == "drain":
            if self.inflight <= self.estimated_bdp_packets:
                self._enter_probe_bw()

    def _enter_probe_bw(self) -> None:
        self._phase = "probe_bw"
        self._cycle_index = 0
        self._cycle_start = self.scheduler.now
        self._pacing_gain = self.PROBE_GAINS[0]
        self._cwnd_gain = self.CWND_GAIN
