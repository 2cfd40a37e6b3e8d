"""One shard: an edge bottleneck packet simulation reduced to statistics.

``run_shard`` is the ``fleet.shard_arm`` runner task.  It builds the
edge's flow population (treated units open ``treatment_connections``
connections — the paper's Figure 2a intervention), runs the packet
engine on its batched fast path (``event_batching=True``), and reduces
the result to a
:class:`~repro.netsim.fleet.aggregate.ShardStats` before returning — the
full ``PacketSimResult`` (O(units on this edge)) never leaves the worker
process.

Upstream congestion computed by the fluid passes arrives as plain
numbers: ``capacity_mbps`` is the *effective* (upstream-limited) drain
rate, ``loss_rate`` the early-loss stand-in for drops at the binding
upstream queue, and ``rtt_ms`` already includes core propagation and any
standing-queue delay.
"""

from __future__ import annotations

from repro.netsim.fleet.aggregate import (
    FCT_CELL,
    QUEUE_DEPTH_CELL,
    UNIT_METRICS,
    CellStats,
    ShardStats,
    cell_key,
)
from repro.netsim.packet.network import PathConfig
from repro.netsim.packet.simulation import FlowConfig, simulate
from repro.netsim.traffic.arrivals import PoissonArrivals
from repro.netsim.traffic.sizes import ParetoSizes
from repro.netsim.traffic.source import TrafficSource
from repro.obs.probe import ProbeConfig
from repro.runner.spec import register_task

__all__ = ["run_shard", "shard_simulation", "reduce_result"]


def shard_simulation(
    treated_mask: tuple[bool, ...],
    treatment_connections: int,
    control_connections: int,
    capacity_mbps: float,
    rtt_ms: float,
    loss_rate: float,
    buffer_bdp: float,
    duration_s: float,
    warmup_s: float,
    churn_per_s: float = 0.0,
    seed: int | None = None,
    probe_interval_s: float = 0.0,
):
    """Run one edge bottleneck's packet simulation and return the raw result.

    The full ``PacketSimResult`` this returns is what :func:`run_shard`
    immediately reduces; it is exposed separately so tests can compare
    the reduced statistics against exact values from the same run.
    ``probe_interval_s > 0`` samples the edge queue at that sim-time
    cadence (queues only — per-flow series on a fleet shard would break
    the O(cells) contract); probing never perturbs the simulation.
    """
    path = PathConfig(loss_rate=loss_rate) if loss_rate > 0.0 else None
    flows = [
        FlowConfig(
            flow_id=i,
            cc="reno",
            connections=treatment_connections if treated else control_connections,
            treated=bool(treated),
            path=path,
        )
        for i, treated in enumerate(treated_mask)
    ]

    traffic_sources = None
    if churn_per_s > 0.0:
        traffic_sources = [
            TrafficSource(
                arrivals=PoissonArrivals(rate_per_s=churn_per_s),
                sizes=ParetoSizes(min_bytes=50_000.0),
                path=path,
                label="churn",
            )
        ]

    return simulate(
        flows,
        capacity_mbps=capacity_mbps,
        base_rtt_ms=rtt_ms,
        buffer_bdp=buffer_bdp,
        duration_s=duration_s,
        warmup_s=warmup_s,
        traffic_sources=traffic_sources,
        seed=seed,
        event_batching=True,
        probe=(
            ProbeConfig(interval_s=probe_interval_s, include_flows=False)
            if probe_interval_s > 0.0
            else None
        ),
    )


@register_task("fleet.shard_arm")
def run_shard(
    treated_mask: tuple[bool, ...],
    treatment_connections: int,
    control_connections: int,
    capacity_mbps: float,
    rtt_ms: float,
    loss_rate: float,
    buffer_bdp: float,
    duration_s: float,
    warmup_s: float,
    churn_per_s: float = 0.0,
    sketch_compression: int = 100,
    seed: int | None = None,
    probe_interval_s: float = 0.0,
) -> ShardStats:
    """Simulate one edge bottleneck and return its sufficient statistics."""
    result = shard_simulation(
        treated_mask,
        treatment_connections=treatment_connections,
        control_connections=control_connections,
        capacity_mbps=capacity_mbps,
        rtt_ms=rtt_ms,
        loss_rate=loss_rate,
        buffer_bdp=buffer_bdp,
        duration_s=duration_s,
        warmup_s=warmup_s,
        churn_per_s=churn_per_s,
        seed=seed,
        probe_interval_s=probe_interval_s,
    )
    return reduce_result(result, sketch_compression=sketch_compression)


def reduce_result(result, sketch_compression: int = 100) -> ShardStats:
    """Reduce a ``PacketSimResult`` to cells + counters.

    Kept separate from :func:`run_shard` so tests can feed hand-built
    simulation results through the same reduction.
    """
    stats = ShardStats(units=len(result.flows), shards=1)
    for arm_name, arm_flag in (("treated", True), ("control", False)):
        for metric in UNIT_METRICS:
            cell = CellStats.with_compression(sketch_compression)
            for flow in result.flows:
                if flow.treated == arm_flag:
                    cell.add(getattr(flow, metric))
            if cell.stats.count:
                stats.cells[cell_key(arm_name, metric)] = cell

    if result.traffic:
        fct_cell = CellStats.with_compression(sketch_compression)
        for source in result.traffic.values():
            stats.dynamic_flows_started += source.flows_started
            stats.dynamic_flows_completed += source.flows_completed
            for fct in source.completion_times_s:
                fct_cell.add(fct)
        if fct_cell.stats.count:
            stats.cells[FCT_CELL] = fct_cell

    stats.packets = sum(f.packets_sent for f in result.flows)
    stats.drops = result.total_drops

    # Engine counters and probe samples are optional: tests feed
    # hand-built result objects through this reduction.
    engine = getattr(result, "engine", None)
    if engine is not None:
        stats.events_processed = engine.events_processed
        stats.pool_reused = engine.pool_reused

    probe = getattr(result, "probe", None)
    if probe is not None:
        depth_cell = CellStats.with_compression(sketch_compression)
        for record in probe.records:
            if record.kind == "queue" and "occupancy_packets" in record.fields:
                depth_cell.add(float(record.fields["occupancy_packets"]))
        if depth_cell.stats.count:
            stats.cells[QUEUE_DEPTH_CELL] = depth_cell
    return stats
