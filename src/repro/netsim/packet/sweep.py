"""Allocation sweeps on the packet-level simulator.

For every number of treated applications from 0 to ``n_units``, run a
packet-level simulation and record each arm's mean throughput and
retransmission fraction.  The result is the
:class:`~repro.core.estimands.AllocationSweep` the fluid lab sweep also
returns, so the causal machinery (TTE, spillover, SUTVA checks) applies
unchanged — this is what the packet-vs-fluid ablation builds on.
"""

from __future__ import annotations

from dataclasses import replace
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.core.estimands import AllocationSweep
from repro.netsim.packet.network import QueueConfig
from repro.netsim.packet.queue import QUEUE_DISCIPLINES
from repro.netsim.packet.simulation import FlowConfig
from repro.runner.executor import ParallelExecutor
from repro.runner.spec import ScenarioSpec

__all__ = ["run_packet_sweep"]

# The benchmark harness (perfbench/workloads.py) imports and builds
# sweep results under this older name.
PacketSweepResult = AllocationSweep

#: The paper's bottleneck geometry, carried by every arm's spec: a 20 ms
#: round trip, a one-BDP buffer and 1500-byte segments.
BASE_RTT_MS = 20.0
BUFFER_BDP = 1.0
MSS_BYTES = 1500


def _discipline_consumes_seed(
    discipline: str, params: Mapping[str, Any] | None = None
) -> bool:
    """Whether the network-level seed reaches this discipline's RNG.

    A seed pinned in the discipline's own params overrides the network
    seed, leaving the latter inert for this queue.
    """
    cls = QUEUE_DISCIPLINES.get(discipline)
    return bool(cls is not None and cls.uses_seed and "seed" not in (params or {}))


def _consumes_seed(
    flows: Sequence[FlowConfig],
    cross_traffic: Sequence[FlowConfig] | None,
    queue_discipline: str,
    extra_queues: Sequence[QueueConfig] | None,
    traffic_sources: Sequence[Any] | None,
) -> bool:
    """Whether anything in one sweep arm draws from the seeded RNGs."""
    if traffic_sources:
        # Dynamic sources draw arrival times and flow sizes from the seed.
        return True
    for flow in [*flows, *(cross_traffic or ())]:
        if flow.path is not None and flow.path.loss_rate > 0.0:
            return True
    if _discipline_consumes_seed(queue_discipline):
        return True
    return any(
        _discipline_consumes_seed(qc.discipline, qc.params)
        for qc in (extra_queues or ())
    )


def run_packet_sweep(
    n_units: int,
    treatment_factory: Callable[[int], FlowConfig],
    control_factory: Callable[[int], FlowConfig],
    allocations: tuple[int, ...] | None = None,
    capacity_mbps: float = 50.0,
    duration_s: float = 15.0,
    warmup_s: float = 5.0,
    queue_discipline: str = "droptail",
    extra_queues: Sequence[QueueConfig] | None = None,
    cross_traffic: Sequence[FlowConfig] | None = None,
    traffic_sources: Sequence[Any] | None = None,
    rtt_ms: Sequence[float] | None = None,
    seed: int | None = None,
    executor: ParallelExecutor | None = None,
) -> AllocationSweep:
    """Sweep the number of treated applications on the packet simulator.

    Every arm runs :func:`repro.netsim.packet.simulation.simulate` on the
    paper's geometry (:data:`BASE_RTT_MS`, :data:`BUFFER_BDP`,
    :data:`MSS_BYTES`) with unbatched, unprobed events.

    Parameters
    ----------
    n_units:
        Number of applications sharing the bottleneck in every run.
    treatment_factory, control_factory:
        Callables mapping an application id to a treated / control
        :class:`FlowConfig`.  The ``treated`` flag is set by the sweep;
        every other field, ``path`` and ``transfer_bytes`` included, is
        kept.  A lossy arm is a factory path with a ``loss_rate``.
    allocations:
        Which treated counts to simulate (defaults to every value from 0 to
        ``n_units``).  Packet-level runs are much slower than the fluid
        model, so sweeps often simulate only the endpoints and one or two
        interior points.
    capacity_mbps, duration_s, warmup_s:
        Passed to :func:`repro.netsim.packet.simulation.simulate`.  The
        default capacity is scaled down from the paper's 10 Gb/s so the
        simulation finishes quickly; the sharing behaviour is rate-free.
    queue_discipline:
        Bottleneck queue discipline (``"droptail"``/``"red"``/``"codel"``/
        ``"fq_codel"``/``"dualpi2"``) at its default parameters, applied
        to every arm.
    extra_queues:
        Additional named queues (e.g. a parking-lot chain) added to every
        arm; factory-supplied paths may route through them.  A queue with
        its own discipline parameters, seed included, is a
        :class:`QueueConfig` here.
    cross_traffic:
        Unmeasured background applications attached to every arm.
    traffic_sources:
        Dynamic :class:`~repro.netsim.traffic.source.TrafficSource`\\ s
        attached to every arm: finite flows spawning and retiring at
        runtime.  Sources consume the seed (arrival times and flow
        sizes), so seeded replications genuinely differ.
    rtt_ms:
        Per-unit RTT profile: unit ``i`` gets ``rtt_ms[i % len(rtt_ms)]``
        unless its factory already set an explicit ``rtt_ms``.  ``None``
        keeps every unit on :data:`BASE_RTT_MS`; an empty profile is an
        error.
    seed:
        Seed for the RED/random-loss RNGs.  Normalized to ``None`` in the
        scenario specs when nothing consumes randomness (no lossy path
        segment and no seed-consuming discipline), mirroring the
        inert-knob rule, so replications of deterministic sweeps share
        one cache entry.
    executor:
        Arms are independent, so they fan out over this
        :class:`~repro.runner.executor.ParallelExecutor` (default: a
        serial, uncached one); results are identical for any worker
        count.  Any object with the executor's ``map`` will do.
    """
    if n_units < 1:
        raise ValueError("n_units must be at least 1")
    if rtt_ms is not None and len(rtt_ms) == 0:
        raise ValueError("rtt_ms must not be empty")
    if allocations is None:
        allocations = tuple(range(n_units + 1))
    for k in allocations:
        if not 0 <= k <= n_units:
            raise ValueError(f"treated count {k} outside [0, {n_units}]")

    # Topology knobs enter the spec only when they deviate from the
    # defaults: an inert knob must stay out of the content key so it
    # cannot split the cache (cf. the CLI's inert ``--quick`` rule).
    extra_params: dict[str, Any] = {}
    if queue_discipline != "droptail":
        extra_params["queue_discipline"] = queue_discipline
    if extra_queues:
        extra_params["extra_queues"] = tuple(extra_queues)
    if cross_traffic:
        extra_params["cross_traffic"] = tuple(cross_traffic)
    if traffic_sources:
        extra_params["traffic_sources"] = tuple(traffic_sources)

    specs: list[ScenarioSpec] = []
    for k in allocations:
        flows: list[FlowConfig] = []
        for i in range(n_units):
            base = treatment_factory(i) if i < k else control_factory(i)
            unit_rtt = base.rtt_ms
            if unit_rtt is None and rtt_ms is not None:
                unit_rtt = float(rtt_ms[i % len(rtt_ms)])
            flows.append(replace(base, treated=i < k, rtt_ms=unit_rtt))
        # The seed is inert when no RNG exists to consume it; keep it out
        # of the content key so replications cannot split the cache.
        spec_seed = seed if _consumes_seed(
            flows, cross_traffic, queue_discipline, extra_queues, traffic_sources
        ) else None
        specs.append(
            ScenarioSpec(
                task="netsim.packet_arm",
                params={
                    "flows": tuple(flows),
                    "capacity_mbps": capacity_mbps,
                    "base_rtt_ms": BASE_RTT_MS,
                    "buffer_bdp": BUFFER_BDP,
                    "duration_s": duration_s,
                    "warmup_s": warmup_s,
                    "mss_bytes": MSS_BYTES,
                    **extra_params,
                },
                seed=spec_seed,
                label=f"packet_arm[k={int(k)}/{n_units}, {queue_discipline}]",
            )
        )

    sweep = AllocationSweep(n_units)
    for k, result in zip(allocations, (executor or ParallelExecutor()).map(specs)):
        sweep.results[int(k)] = result
    return sweep
