"""Engine counters and a small mergeable metrics registry.

:class:`EngineCounters` is the counter schema every packet simulation
reports (satellite of the observability layer): one record per run, the
same fields batched or not, so dashboards and reports never branch on
the engine configuration.

:class:`MetricsRegistry` is the accumulation side: a flat name → number
mapping with ``inc``/``set_gauge``/``merge``, used by the CLI to total
engine counters across fleets and by the run report to render them.
Deterministic by construction — it holds only what callers put in and
renders in sorted name order.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EngineCounters", "MetricsRegistry"]


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


class MetricsRegistry:
    """A flat, mergeable name → value store for run-level counters."""

    def __init__(self) -> None:
        self._values: dict[str, float] = {}

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a counter (creating it at 0)."""
        self._values[name] = self._values.get(name, 0.0) + float(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge to an absolute value (last write wins)."""
        self._values[name] = float(value)

    def get(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter/gauge."""
        return self._values.get(name, default)

    def merge(self, other: MetricsRegistry | dict[str, float]) -> None:
        """Fold another registry (or mapping) in by summation."""
        values = other._values if isinstance(other, MetricsRegistry) else other
        for name in sorted(values):
            self.inc(name, values[name])

    def as_dict(self) -> dict[str, float]:
        """All values, sorted by name."""
        return {name: self._values[name] for name in sorted(self._values)}

    def __len__(self) -> int:
        """Number of distinct metric names."""
        return len(self._values)
