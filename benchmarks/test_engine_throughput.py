"""Absolute-throughput microbenchmarks of the packet engine hot path.

Unlike the figure benchmarks (which time whole experiments), these drive
a single drop-tail bottleneck at saturation — 8 Reno connections filling
a 200 Mb/s link — and report the engine's *absolute* throughput in
segments/sec and scheduler events/sec via the ``throughput`` fixture, so
the perf trajectory (``BENCH_*.json``) records speedups, not just
regressions.  Every network runs the binary-heap scheduler; the same
workload is measured twice:

* unbatched (the default, one event per segment and hop),
* with event batching (macro-packets), whose ≥2x speedup is the
  acceptance bar asserted by ``test_batching_speedup_is_at_least_2x``.

``test_scheduler_churn_heap`` times the bare heap, with no network.

The workload matches the cost model in ``docs/performance.md``: at
saturation the unbatched engine spends ~2 scheduler events per segment
(one service completion, one ack delivery), so segments/sec is the
honest, config-independent unit to compare across engine variants.
"""

import time

from _helpers import run_once

from repro.netsim.packet.engine import EventScheduler
from repro.netsim.packet.network import Network
from repro.netsim.packet.simulation import FlowConfig

#: Saturation workload: 4 applications x 2 Reno connections on one
#: 200 Mb/s, 20 ms bottleneck with a 1-BDP buffer — enough aggregate
#: window to keep the link busy from the first RTT on.
SATURATION = dict(capacity_mbps=200.0, base_rtt_ms=20.0, buffer_bdp=1.0)
N_APPS = 4
CONNECTIONS = 2
DURATION_S = 4.0
WARMUP_S = 1.0


def _build_network(**engine_kwargs):
    network = Network(**SATURATION, **engine_kwargs)
    for i in range(N_APPS):
        network.add_flow(FlowConfig(i, cc="reno", connections=CONNECTIONS))
    return network


def _timed_run(**engine_kwargs):
    """Run the saturation workload; return (network, result, wall seconds)."""
    network = _build_network(**engine_kwargs)
    start = time.perf_counter()
    result = network.run(duration_s=DURATION_S, warmup_s=WARMUP_S)
    wall = time.perf_counter() - start
    return network, result, wall


def _segments_sent(result):
    return sum(f.packets_sent for f in result.flows)


def _assert_saturated(result):
    # Both engine variants must actually fill the link; a variant that
    # "wins" by sending less traffic is not faster, it is wrong.
    assert result.total_throughput_mbps() >= 0.95 * SATURATION["capacity_mbps"]


def test_saturation_heap(benchmark, throughput):
    network, result, wall = run_once(benchmark, _timed_run)
    _assert_saturated(result)
    throughput.record(
        packets=_segments_sent(result),
        events=network.scheduler.events_processed,
        seconds=wall,
    )


def test_saturation_batched(benchmark, throughput):
    network, result, wall = run_once(benchmark, _timed_run, event_batching=True)
    _assert_saturated(result)
    throughput.record(
        packets=_segments_sent(result),
        events=network.scheduler.events_processed,
        seconds=wall,
    )
    # The whole point of macro-packets: far fewer scheduler events than
    # segments (unbatched spends ~2 events per segment).
    assert network.scheduler.events_processed < _segments_sent(result)


def test_batching_speedup_is_at_least_2x():
    """The acceptance bar: batching buys >=2x segments/sec at saturation.

    The 2x floor leaves room for CI jitter.  Best-of-two per variant
    damps one-off scheduler hiccups on shared runners.
    """

    def best_rate(**engine_kwargs):
        best = 0.0
        for _ in range(2):
            _, result, wall = _timed_run(**engine_kwargs)
            _assert_saturated(result)
            best = max(best, _segments_sent(result) / wall)
        return best

    unbatched = best_rate()
    batched = best_rate(event_batching=True)
    assert batched >= 2.0 * unbatched, (
        f"batching speedup {batched / unbatched:.2f}x below the 2x bar "
        f"({batched:,.0f} vs {unbatched:,.0f} segments/sec)"
    )


# -- pure scheduler churn (no network) ----------------------------------------

#: Events pushed through the bare scheduler in the churn benchmark.
CHURN_EVENTS = 100_000


def _scheduler_churn():
    """Steady-state churn: every event re-arms itself a short hop ahead.

    Mimics the engine's event population at saturation — a few hundred
    live events, all within one horizon — isolating raw scheduler
    overhead from the TCP/queue machinery.
    """
    sched = EventScheduler()
    remaining = [CHURN_EVENTS]

    def rearm():
        if remaining[0] > 0:
            remaining[0] -= 1
            sched.schedule(sched.now + 1e-3, rearm)

    for _ in range(500):
        sched.schedule(sched.now + 1e-4, rearm)
    sched.run(until=1e9)
    assert remaining[0] == 0
    return sched


def test_scheduler_churn_heap(benchmark, throughput):
    start = time.perf_counter()
    sched = run_once(benchmark, _scheduler_churn)
    wall = time.perf_counter() - start
    throughput.record(
        packets=0, events=sched.events_processed, seconds=wall
    )

