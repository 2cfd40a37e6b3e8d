"""Wall-time of the packet sweep under heavy flow churn vs the static baseline.

Dynamic traffic is the first feature that changes the *number of
senders* over a run: every spawned flow adds scheduler events, sender
state and queue traffic, and completed flows must retire cheaply rather
than linger.  Benchmarking the identical quick-mode sweep with and
without a high-rate churn source keeps that overhead visible in the perf
trajectory, separately from the per-discipline costs tracked by
``test_queue_disciplines.py`` and ``test_fq_codel.py``.

Quick-mode sizing matches the topology experiments' quick scale so the
pair stays cheap enough to ride along in tier-1 runs.
"""

from _helpers import run_once

from repro.netsim.packet.simulation import FlowConfig
from repro.netsim.packet.sweep import run_packet_sweep
from repro.netsim.traffic.arrivals import PoissonArrivals
from repro.netsim.traffic.sizes import ParetoSizes
from repro.netsim.traffic.source import TrafficSource

#: Quick-mode sweep sizing, matching the topology experiments' quick scale.
QUICK_KWARGS = dict(
    allocations=(0, 2, 4),
    capacity_mbps=24.0,
    duration_s=6.0,
    warmup_s=2.0,
)

#: High-churn source: ~10 Pareto-sized flows per second through the
#: bottleneck (about 60 spawns and retirements per 6-second arm).
HIGH_CHURN = TrafficSource(
    arrivals=PoissonArrivals(10.0),
    sizes=ParetoSizes(min_bytes=60_000.0, alpha=1.5),
    label="churn",
)


def _sweep(traffic_sources):
    return run_packet_sweep(
        4,
        treatment_factory=lambda i: FlowConfig(i, cc="reno", connections=2),
        control_factory=lambda i: FlowConfig(i, cc="reno", connections=1),
        traffic_sources=traffic_sources,
        seed=0,
        **QUICK_KWARGS,
    )


def test_static_baseline_sweep_quick(benchmark):
    sweep = run_once(benchmark, _sweep, None)
    assert sorted(sweep.results) == [0, 2, 4]
    assert all(not r.traffic for r in sweep.results.values())


def test_high_churn_sweep_quick(benchmark):
    sweep = run_once(benchmark, _sweep, (HIGH_CHURN,))
    assert sorted(sweep.results) == [0, 2, 4]
    for result in sweep.results.values():
        started, completed = result.dynamic_flow_counts()
        assert started > 20  # the churn really ran ...
        assert completed > 0.5 * started  # ... and flows really retired
