"""Engine counters: what every packet simulation reports about its run.

:class:`EngineCounters` is one record per run, the same fields batched or
not, so reports never branch on the engine configuration.  ``repro fleet``
totals them across shards into its trace metadata, and ``repro report``
renders them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EngineCounters"]


@dataclass(frozen=True)
class EngineCounters:
    """Counters of one packet-engine run.

    Attributes
    ----------
    events_processed:
        Scheduler callbacks executed (the events/sec numerator of the
        performance model, see ``docs/performance.md``).
    events_scheduled:
        Events ever inserted into the scheduler (processed + cancelled +
        still pending at the horizon).
    pool_acquired:
        Packets handed out by the :class:`~repro.netsim.packet.packets.PacketPool`.
    pool_reused:
        Of those, how many reused a retired slot instead of allocating.
    random_losses:
        Packets lost on impaired path segments (not queue drops).
    """

    events_processed: int
    events_scheduled: int
    pool_acquired: int
    pool_reused: int
    random_losses: int = 0

    def as_dict(self) -> dict[str, float]:
        """The counters as a flat mapping."""
        return {
            "events_processed": float(self.events_processed),
            "events_scheduled": float(self.events_scheduled),
            "pool_acquired": float(self.pool_acquired),
            "pool_reused": float(self.pool_reused),
            "random_losses": float(self.random_losses),
        }
