"""Allocation sweeps on the packet-level simulator.

Mirrors :func:`repro.netsim.fluid.lab.run_lab_sweep` but drives the
discrete-event simulator instead of the fluid model: for every number of
treated applications from 0 to ``n_units``, run a packet-level simulation
and record each arm's mean throughput and retransmission fraction.  The
result exposes the same :class:`~repro.core.estimands.PotentialOutcomeCurve`
interface, so the causal machinery (TTE, spillover, SUTVA checks) applies
unchanged — this is what the packet-vs-fluid ablation builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.core.estimands import PotentialOutcomeCurve
from repro.netsim.packet.network import PathConfig, QueueConfig
from repro.netsim.packet.queue import QUEUE_DISCIPLINES
from repro.netsim.packet.simulation import FlowConfig, PacketSimResult
from repro.runner.cache import ResultCache
from repro.runner.executor import ParallelExecutor
from repro.runner.spec import ScenarioSpec

__all__ = ["PacketSweepResult", "run_packet_sweep"]


@dataclass
class PacketSweepResult:
    """Results of a packet-level allocation sweep.

    Attributes
    ----------
    n_units:
        Number of applications in every run.
    results:
        ``results[k]`` is the :class:`PacketSimResult` with ``k`` treated
        applications.
    """

    n_units: int
    results: dict[int, PacketSimResult] = field(default_factory=dict)

    def curve(self, metric: str) -> PotentialOutcomeCurve:
        """Potential-outcome curve for ``throughput_mbps`` or ``retransmit_fraction``."""
        if metric not in ("throughput_mbps", "retransmit_fraction"):
            raise KeyError(
                f"unknown metric {metric!r}; expected 'throughput_mbps' or 'retransmit_fraction'"
            )
        mu_t: dict[float, float] = {}
        mu_c: dict[float, float] = {}
        for k, result in self.results.items():
            p = k / self.n_units
            if metric == "throughput_mbps":
                if k > 0:
                    mu_t[p] = result.group_mean_throughput(True)
                if k < self.n_units:
                    mu_c[p] = result.group_mean_throughput(False)
            else:
                if k > 0:
                    mu_t[p] = result.group_mean_retransmit(True)
                if k < self.n_units:
                    mu_c[p] = result.group_mean_retransmit(False)
        return PotentialOutcomeCurve(metric, mu_t, mu_c)

    def tte(self, metric: str) -> float:
        """Total treatment effect measured by the sweep's endpoints."""
        return self.curve(metric).tte()

    def ab_estimate(self, metric: str, allocation: float) -> float:
        """Naive A/B estimate at an interior allocation."""
        return self.curve(metric).ate(allocation)


def _discipline_consumes_seed(
    discipline: str, params: Mapping[str, Any] | None
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
    queue_params: Mapping[str, Any] | None,
    extra_queues: Sequence[QueueConfig] | None,
    traffic_sources: Sequence[Any] | None = None,
) -> bool:
    """Whether anything in one sweep arm draws from the seeded RNGs."""
    if traffic_sources:
        # Dynamic sources draw arrival times and flow sizes from the seed.
        return True
    for flow in [*flows, *(cross_traffic or ())]:
        if flow.path is not None and flow.path.loss_rate > 0.0:
            return True
    if _discipline_consumes_seed(queue_discipline, queue_params):
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
    base_rtt_ms: float = 20.0,
    buffer_bdp: float = 1.0,
    duration_s: float = 15.0,
    warmup_s: float = 5.0,
    mss_bytes: int = 1500,
    queue_discipline: str = "droptail",
    queue_params: Mapping[str, Any] | None = None,
    extra_queues: Sequence[QueueConfig] | None = None,
    cross_traffic: Sequence[FlowConfig] | None = None,
    traffic_sources: Sequence[Any] | None = None,
    rtt_ms: Sequence[float] | None = None,
    loss_rate: float = 0.0,
    seed: int | None = None,
    event_batching: bool = False,
    probe: Any = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    executor: ParallelExecutor | None = None,
) -> PacketSweepResult:
    """Sweep the number of treated applications on the packet simulator.

    Parameters
    ----------
    n_units:
        Number of applications sharing the bottleneck in every run.
    treatment_factory, control_factory:
        Callables mapping an application id to a treated / control
        :class:`FlowConfig`.  The ``treated`` flag is set by the sweep;
        every other field, ``transfer_bytes`` included, is kept.
    allocations:
        Which treated counts to simulate (defaults to every value from 0 to
        ``n_units``).  Packet-level runs are much slower than the fluid
        model, so sweeps often simulate only the endpoints and one or two
        interior points.
    capacity_mbps, base_rtt_ms, buffer_bdp, duration_s, warmup_s, mss_bytes:
        Passed to :func:`repro.netsim.packet.simulation.simulate`.  The
        default capacity is scaled down from the paper's 10 Gb/s so the
        simulation finishes quickly; the sharing behaviour is rate-free.
    queue_discipline, queue_params:
        Bottleneck queue discipline (``"droptail"``/``"red"``/``"codel"``/
        ``"fq_codel"``/``"dualpi2"``) and its extra parameters, applied to
        every arm.
    extra_queues:
        Additional named queues (e.g. a parking-lot chain) added to every
        arm; factory-supplied paths may route through them.
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
        keeps every unit on ``base_rtt_ms``; an empty profile is an
        error.
    loss_rate:
        Random-loss probability applied to every unit's path.  Composes
        with factory-supplied :class:`PathConfig`\\ s: a factory path that
        left ``loss_rate`` at 0.0 picks up the sweep-level rate, while a
        nonzero factory rate wins.  (A factory cannot pin a single flow
        to *zero* loss inside a lossy sweep — 0.0 is indistinguishable
        from unset.)
    seed:
        Seed for the RED/random-loss RNGs.  Normalized to ``None`` in the
        scenario specs when nothing consumes randomness (no lossy path
        segment and no seed-consuming discipline), mirroring the
        inert-knob rule, so replications of deterministic sweeps share
        one cache entry.
    event_batching:
        Macro-packet fast path (see
        :func:`repro.netsim.packet.simulation.simulate`).  Batching
        changes the simulated traces (coarser bursts), so when enabled
        it enters the content key — batched and unbatched runs must not
        share cache entries; left off it stays out of the key, per the
        inert-knob rule.
    probe:
        In-sim telemetry (:class:`repro.obs.probe.ProbeConfig`) attached
        to every arm.  Probing never changes results, so like every inert
        knob it enters the content key only when set — but note that a
        probed arm *does* cache separately from an unprobed one, because
        the cached result carries the probe log.
    jobs, cache, executor:
        Arms are independent, so they fan out over a
        :class:`~repro.runner.executor.ParallelExecutor` with ``jobs``
        worker processes (results are identical for any ``jobs``) and an
        optional on-disk result cache.  Passing an ``executor`` overrides
        both.
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
    if queue_params:
        extra_params["queue_params"] = dict(queue_params)
    if extra_queues:
        extra_params["extra_queues"] = tuple(extra_queues)
    if cross_traffic:
        extra_params["cross_traffic"] = tuple(cross_traffic)
    if traffic_sources:
        extra_params["traffic_sources"] = tuple(traffic_sources)
    if event_batching:
        # Batching approximates the unbatched traces, so batched and
        # unbatched runs must not share cache entries.
        extra_params["event_batching"] = True
    if probe is not None:
        # The simulated outcomes are probe-independent, but the cached
        # result object carries the probe log, so probed runs key apart.
        extra_params["probe"] = probe

    specs: list[ScenarioSpec] = []
    for k in allocations:
        flows: list[FlowConfig] = []
        for i in range(n_units):
            base = treatment_factory(i) if i < k else control_factory(i)
            unit_rtt = base.rtt_ms
            if unit_rtt is None and rtt_ms is not None:
                unit_rtt = float(rtt_ms[i % len(rtt_ms)])
            path = base.path
            if loss_rate > 0.0:
                # Compose with factory paths instead of silently ignoring
                # the sweep-level rate; a nonzero factory rate wins.
                if path is None:
                    path = PathConfig(loss_rate=loss_rate)
                elif path.loss_rate == 0.0:
                    path = replace(path, loss_rate=loss_rate)
            flows.append(replace(base, treated=i < k, rtt_ms=unit_rtt, path=path))
        # The seed is inert when no RNG exists to consume it; keep it out
        # of the content key so replications cannot split the cache.
        spec_seed = seed if _consumes_seed(
            flows, cross_traffic, queue_discipline, queue_params, extra_queues,
            traffic_sources,
        ) else None
        specs.append(
            ScenarioSpec(
                task="netsim.packet_arm",
                params={
                    "flows": tuple(flows),
                    "capacity_mbps": capacity_mbps,
                    "base_rtt_ms": base_rtt_ms,
                    "buffer_bdp": buffer_bdp,
                    "duration_s": duration_s,
                    "warmup_s": warmup_s,
                    "mss_bytes": mss_bytes,
                    **extra_params,
                },
                seed=spec_seed,
                label=f"packet_arm[k={int(k)}/{n_units}, {queue_discipline}]",
            )
        )

    executor = executor or ParallelExecutor(jobs=jobs, cache=cache)
    sweep = PacketSweepResult(n_units=n_units)
    for k, result in zip(allocations, executor.map(specs)):
        sweep.results[int(k)] = result
    return sweep
