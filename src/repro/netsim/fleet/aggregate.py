"""Sufficient statistics crossing the shard boundary.

A shard simulation may hold thousands of per-flow results while it runs,
but the only thing it *returns* is a :class:`ShardStats`: per-cell exact
moments plus a bounded-size quantile sketch.  Cells are
``"{arm}:{metric}"`` pairs (plus the arm-agnostic FCT cell fed by
dynamic churn), so the merged fleet result is O(cells x sketch size) —
never O(units).  Merging is pairwise and non-mutating; the fleet engine
folds shards in edge order, which makes the merged result bit-identical
for any ``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analysis import QuantileSketch, StreamingStats

__all__ = [
    "ARMS",
    "UNIT_METRICS",
    "FCT_CELL",
    "QUEUE_DEPTH_CELL",
    "CellStats",
    "ShardStats",
    "cell_key",
]

#: Experiment arms (cells are per arm for unit-level metrics).
ARMS: tuple[str, ...] = ("treated", "control")

#: Per-unit metrics collected from every shard's flow results.
UNIT_METRICS: tuple[str, ...] = ("throughput_mbps", "retransmit_fraction")

#: Cell holding dynamic-flow completion times.  Churn traffic is
#: unmeasured background load shared by both arms, so it gets one
#: arm-agnostic cell.
FCT_CELL = "fleet:fct_s"

#: Cell holding probed queue-depth samples (packets waiting at the edge
#: bottleneck, one observation per probe instant).  Only present when
#: the fleet spec enables probing (``probe_interval_s > 0``); bounded by
#: the sample cadence, so the O(cells) contract holds.
QUEUE_DEPTH_CELL = "fleet:queue_depth_pkts"


def cell_key(arm: str, metric: str) -> str:
    """Canonical cell name for an (arm, metric) pair."""
    return f"{arm}:{metric}"


@dataclass
class CellStats:
    """One cell's sufficient statistics: exact moments + quantile sketch."""

    stats: StreamingStats = field(default_factory=StreamingStats)
    sketch: QuantileSketch = field(default_factory=QuantileSketch)

    @classmethod
    def with_compression(cls, compression: int) -> "CellStats":
        """An empty cell whose sketch uses the given compression factor."""
        return cls(sketch=QuantileSketch(compression=compression))

    def add(self, value: float) -> None:
        """Fold one observation into both summaries."""
        self.stats.add(value)
        self.sketch.add(value)

    def merge(self, other: "CellStats") -> "CellStats":
        """Return a new cell combining both inputs (non-mutating)."""
        return CellStats(
            stats=self.stats.merge(other.stats),
            sketch=self.sketch.merge(other.sketch),
        )


@dataclass
class ShardStats:
    """Everything a shard returns: cells plus O(1) counters.

    ``merge`` is the only aggregation operation the fleet ever performs,
    so holding one ``ShardStats`` per in-flight shard plus one
    accumulator bounds the parent's aggregation memory.
    """

    cells: dict[str, CellStats] = field(default_factory=dict)
    units: int = 0
    shards: int = 1
    packets: int = 0
    drops: int = 0
    dynamic_flows_started: int = 0
    dynamic_flows_completed: int = 0
    #: Engine counters folded across shards (see
    #: :class:`repro.obs.metrics.EngineCounters`).  Deduped
    #: shards contribute once per edge they stand for — the "as-if" cost
    #: of the fleet, not the cache-reduced cost actually paid.
    events_processed: int = 0
    pool_reused: int = 0
    #: Pairwise cell merges performed while folding (the streaming-
    #: aggregation work metric; 0 for a freshly reduced shard).
    sketch_merges: int = 0

    def cell(self, arm: str, metric: str) -> CellStats:
        """The cell for an (arm, metric) pair; raises KeyError if absent."""
        return self.cells[cell_key(arm, metric)]

    def merge(self, other: "ShardStats") -> "ShardStats":
        """Return a new ``ShardStats`` combining both inputs (non-mutating)."""
        merged_cells: dict[str, CellStats] = {}
        for key in sorted(set(self.cells) | set(other.cells)):
            if key in self.cells and key in other.cells:
                merged_cells[key] = self.cells[key].merge(other.cells[key])
            elif key in self.cells:
                merged_cells[key] = self.cells[key].merge(CellStats())
            else:
                merged_cells[key] = CellStats().merge(other.cells[key])
        return ShardStats(
            cells=merged_cells,
            units=self.units + other.units,
            shards=self.shards + other.shards,
            packets=self.packets + other.packets,
            drops=self.drops + other.drops,
            dynamic_flows_started=self.dynamic_flows_started
            + other.dynamic_flows_started,
            dynamic_flows_completed=self.dynamic_flows_completed
            + other.dynamic_flows_completed,
            events_processed=self.events_processed + other.events_processed,
            pool_reused=self.pool_reused + other.pool_reused,
            sketch_merges=self.sketch_merges + other.sketch_merges + len(merged_cells),
        )
