"""The bottleneck link of the lab testbed.

The paper's lab has a single congestion point: the switch port facing the
receiving server, a 10 Gb/s link with a buffer of one bandwidth-delay
product and roughly 1 ms of base round-trip time.  :class:`BottleneckLink`
captures the static parameters of that bottleneck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BottleneckLink", "loss_probability"]

#: Bits per byte, used in BDP calculations.
BITS_PER_BYTE = 8


def loss_probability(
    per_connection_mbps: "float | np.ndarray",
    *,
    rtt_ms: "float | np.ndarray",
    mtu_bytes: "float | np.ndarray",
):
    """Square-root TCP loss-throughput relationship, array-capable.

    A loss-based connection sustaining rate ``r`` over round-trip time
    ``RTT`` with segment size ``S`` requires a loss probability of about
    ``p = 1.5 (S / (RTT r))^2`` (``rate = S/RTT * sqrt(3/2p)`` inverted).
    Accepts scalars or numpy arrays (broadcast together); rates at or
    below zero map to a loss probability of 1, and the result is clipped
    to [0, 1].

    This is the fleet hybrid's backbone coupling kernel (thousands of
    edges at once); :meth:`BottleneckLink.loss_probability` computes the
    same value for one rate in Python floats.
    """
    rate_bps = np.asarray(per_connection_mbps, dtype=float) * 1e6
    rtt_s = np.asarray(rtt_ms, dtype=float) / 1000.0
    segment_bits = np.asarray(mtu_bytes, dtype=float) * BITS_PER_BYTE
    with np.errstate(divide="ignore", invalid="ignore"):
        p = 1.5 * (segment_bits / (rtt_s * rate_bps)) ** 2
    p = np.where(rate_bps > 0.0, np.minimum(p, 1.0), 1.0)
    if p.ndim == 0:
        return float(p)
    return p


@dataclass(frozen=True)
class BottleneckLink:
    """A single bottleneck link shared by all experimental traffic.

    Parameters
    ----------
    capacity_gbps:
        Link capacity in gigabits per second (paper: 10 Gb/s).
    base_rtt_ms:
        Round-trip propagation delay in milliseconds when queues are empty
        (paper: ~1 ms added with ``tc``).
    buffer_bdp:
        Buffer size expressed in bandwidth-delay products (paper: 1 BDP).
    mtu_bytes:
        Maximum transmission unit in bytes (paper: 9000-byte jumbo frames).
    """

    capacity_gbps: float = 10.0
    base_rtt_ms: float = 1.0
    buffer_bdp: float = 1.0
    mtu_bytes: int = 9000

    def __post_init__(self) -> None:
        if not 0 < self.capacity_gbps < math.inf:
            raise ValueError("capacity_gbps must be positive and finite")
        if not 0 < self.base_rtt_ms < math.inf:
            raise ValueError("base_rtt_ms must be positive and finite")
        if not 0 <= self.buffer_bdp < math.inf:
            raise ValueError("buffer_bdp must be non-negative and finite")
        if not 0 < self.mtu_bytes < math.inf:
            raise ValueError("mtu_bytes must be positive and finite")

    @property
    def capacity_mbps(self) -> float:
        """Capacity in megabits per second."""
        return self.capacity_gbps * 1000.0

    @property
    def bdp_bytes(self) -> float:
        """Bandwidth-delay product in bytes."""
        return self.capacity_gbps * 1e9 / BITS_PER_BYTE * (self.base_rtt_ms / 1000.0)

    @property
    def buffer_bytes(self) -> float:
        """Buffer size in bytes."""
        return self.buffer_bdp * self.bdp_bytes

    @property
    def max_queueing_delay_ms(self) -> float:
        """Queueing delay when the buffer is full, in milliseconds."""
        return self.buffer_bytes * BITS_PER_BYTE / (self.capacity_gbps * 1e9) * 1000.0

    def loss_probability(self, per_connection_mbps: float) -> float:
        """Loss probability sustaining the given per-connection rate here.

        Evaluates the square-root TCP loss-throughput relationship with
        this link's RTT and MTU.  It makes the float operations of
        :func:`loss_probability`, in the same order, on Python floats, so
        it returns the kernel's value without its array overhead.
        """
        rate_bps = float(per_connection_mbps) * 1e6
        if not rate_bps > 0.0:
            return 1.0
        rtt_s = float(self.base_rtt_ms) / 1000.0
        segment_bits = float(self.mtu_bytes) * BITS_PER_BYTE
        ratio = segment_bits / (rtt_s * rate_bps)
        # numpy evaluates an array's ``** 2`` as ``x * x``.
        return min(1.5 * (ratio * ratio), 1.0)
