"""Built-in substrate tasks: debug echo, simulation arms, workload tables.

Each task is a module-level function registered with
:func:`repro.runner.spec.register_task`.  Tasks import the simulators
*inside* the function body: this module is imported lazily by the task
registry, and the simulators themselves import the runner, so deferring
the heavy imports keeps the dependency graph acyclic and worker start-up
cheap.  Tasks built from experiments (``figure.cells``, the design
emulations) register in :mod:`repro.experiments`, above the runner.

Every task accepts a ``seed`` keyword argument and derives all of its
randomness from it (or ignores it when the underlying computation is
deterministic), so a task's result is a pure function of its spec.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.runner.spec import register_task

__all__ = [
    "echo",
    "packet_arm",
    "fluid_arm",
    "baseline_table",
    "experiment_table",
    "aa_table",
]


@register_task("debug.echo")
def echo(seed: int | None = None, **params: Any) -> dict[str, Any]:
    """Return the spec's own payload; used by tests and smoke checks."""
    return {"seed": seed, **params}


# -- netsim arms ---------------------------------------------------------------


@register_task("netsim.packet_arm")
def packet_arm(
    flows: Sequence[Any],
    capacity_mbps: float,
    base_rtt_ms: float,
    buffer_bdp: float,
    duration_s: float,
    warmup_s: float,
    mss_bytes: int = 1500,
    queue_discipline: str = "droptail",
    queue_params: Mapping[str, Any] | None = None,
    extra_queues: Sequence[Any] | None = None,
    cross_traffic: Sequence[Any] | None = None,
    traffic_sources: Sequence[Any] | None = None,
    seed: int | None = None,
    scheduler: str = "auto",
    event_batching: bool = False,
    batch_segments: int = 8,
    probe: Any = None,
) -> Any:
    """One packet-level simulation arm (a fixed set of flow configs).

    ``queue_discipline``/``queue_params`` select the bottleneck AQM;
    per-flow RTTs, ECN and loss segments travel inside the flow configs;
    ``extra_queues``/``cross_traffic`` describe multi-bottleneck
    topologies and unmeasured background load; ``traffic_sources`` add
    dynamic churn (finite flows spawning and retiring at runtime).
    ``scheduler`` selects the event engine (order-identical, never
    changes results); ``event_batching``/``batch_segments`` enable the
    approximate macro-packet fast path; ``probe`` attaches non-perturbing
    in-sim telemetry (a :class:`repro.obs.probe.ProbeConfig`).
    """
    from repro.netsim.packet.simulation import simulate

    return simulate(
        list(flows),
        capacity_mbps=capacity_mbps,
        base_rtt_ms=base_rtt_ms,
        buffer_bdp=buffer_bdp,
        mss_bytes=mss_bytes,
        duration_s=duration_s,
        warmup_s=warmup_s,
        queue_discipline=queue_discipline,
        queue_params=dict(queue_params) if queue_params else None,
        extra_queues=list(extra_queues) if extra_queues else None,
        cross_traffic=list(cross_traffic) if cross_traffic else None,
        traffic_sources=list(traffic_sources) if traffic_sources else None,
        seed=seed,
        scheduler=scheduler,
        event_batching=event_batching,
        batch_segments=batch_segments,
        probe=probe,
    )


@register_task("fleet.shard_arm")
def fleet_shard_arm(
    treated_mask: Sequence[bool],
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
) -> Any:
    """One fleet shard: an edge-bottleneck packet sim reduced to statistics.

    Returns a :class:`~repro.netsim.fleet.aggregate.ShardStats`, never the
    raw simulation result — the O(cells) contract of the fleet engine.
    ``probe_interval_s > 0`` samples queue depth at that sim-time cadence
    and folds it into the stats (still O(cells), never per-flow).
    """
    from repro.netsim.fleet.shard import run_shard

    return run_shard(
        tuple(bool(t) for t in treated_mask),
        treatment_connections=treatment_connections,
        control_connections=control_connections,
        capacity_mbps=capacity_mbps,
        rtt_ms=rtt_ms,
        loss_rate=loss_rate,
        buffer_bdp=buffer_bdp,
        duration_s=duration_s,
        warmup_s=warmup_s,
        churn_per_s=churn_per_s,
        sketch_compression=sketch_compression,
        seed=seed,
        probe_interval_s=probe_interval_s,
    )


@register_task("netsim.fluid_arm")
def fluid_arm(
    applications: Sequence[Any],
    link: Any = None,
    model: Any = None,
    noise: float = 0.0,
    seed: int | None = None,
) -> Any:
    """One fluid lab arm: a fixed application mix sharing the bottleneck."""
    from repro.netsim.fluid.lab import run_lab_experiment

    return run_lab_experiment(
        list(applications), link=link, model=model, noise=noise, seed=seed
    )


# -- paired-link workload tables -----------------------------------------------


@register_task("workload.baseline_table")
def baseline_table(config: Any, days: Sequence[int], seed: int | None = None) -> Any:
    """The untreated baseline week of the paired-link workload."""
    from repro.workload.netflix import PairedLinkWorkload

    return PairedLinkWorkload(config).generate_baseline(tuple(days))


@register_task("workload.experiment_table")
def experiment_table(
    config: Any, design: Any, days: Sequence[int], seed: int | None = None
) -> Any:
    """The main experiment week under a paired-link allocation plan."""
    from repro.workload.netflix import PairedLinkWorkload

    workload = PairedLinkWorkload(config)
    plan = design.allocation_plan(config.links, tuple(days))
    return workload.generate(plan, tuple(days), treatment_active=True)


@register_task("workload.aa_table")
def aa_table(config: Any, days: Sequence[int], seed: int | None = None) -> Any:
    """The post-experiment A/A week (labelled but never capped)."""
    from repro.workload.netflix import PairedLinkWorkload

    return PairedLinkWorkload(config).generate_aa_test(tuple(days))
