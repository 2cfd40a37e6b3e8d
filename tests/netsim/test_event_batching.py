"""Event batching: macro-packet mechanics and trace equivalence.

Batching is an *approximation* knob: batched traces differ from
unbatched ones, so these tests pin two different contracts:

* mechanics — macro sizing, counter scaling, pooling and worker-count
  invariance are exact properties, asserted exactly;
* fidelity — a batched run must reproduce the unbatched run's
  sender-visible metrics within stated tolerances at large windows (the
  regime batching targets).  Per-flow shares at small windows are
  chaotic even without batching (drop-tail synchronisation), so the
  per-flow tolerance is only meaningful on a large-BDP workload.
"""

import pytest

from repro.netsim.packet.engine import EventScheduler
from repro.netsim.packet.packets import Packet, PacketPool
from repro.netsim.packet.simulation import FlowConfig, simulate
from repro.netsim.packet.tcp import BBRSender, CubicSender, RenoSender
from repro.runner.executor import ParallelExecutor
from repro.runner.spec import ScenarioSpec

#: Large-BDP bottleneck (~333 packet BDP): windows are big enough for
#: full-size macros, so this is the regime the fidelity bounds cover.
LARGE_WINDOW = dict(
    capacity_mbps=200.0, base_rtt_ms=20.0, buffer_bdp=1.0, duration_s=4.0, warmup_s=1.0
)
#: Aggregate throughput must be essentially unchanged by batching.
AGGREGATE_RTOL = 0.01
#: Individual flow throughput may shift as losses land on different
#: packets (measured: ~7% on the workload below).
PER_FLOW_RTOL = 0.15
#: Retransmit fractions are near zero at this scale on both sides.
RETX_ATOL = 0.005


def large_window_flows():
    return [FlowConfig(i, cc="reno", connections=2) for i in range(4)]


class TestTraceEquivalence:
    @pytest.fixture(scope="class")
    def runs(self):
        flows = large_window_flows()
        return (
            simulate(flows, **LARGE_WINDOW),
            simulate(flows, event_batching=True, **LARGE_WINDOW),
        )

    def test_aggregate_throughput_preserved(self, runs):
        exact, batched = runs
        assert batched.total_throughput_mbps() == pytest.approx(
            exact.total_throughput_mbps(), rel=AGGREGATE_RTOL
        )

    def test_per_flow_throughput_within_tolerance(self, runs):
        exact, batched = runs
        for a, b in zip(exact.flows, batched.flows):
            assert b.throughput_mbps == pytest.approx(
                a.throughput_mbps, rel=PER_FLOW_RTOL
            )

    def test_retransmit_fraction_within_tolerance(self, runs):
        exact, batched = runs
        for a, b in zip(exact.flows, batched.flows):
            assert b.retransmit_fraction == pytest.approx(
                a.retransmit_fraction, abs=RETX_ATOL
            )

    def test_flows_remain_saturating(self, runs):
        _, batched = runs
        assert batched.total_throughput_mbps() >= 0.95 * LARGE_WINDOW["capacity_mbps"]

    def test_l4s_flows_never_batch(self):
        # DCTCP steers on per-packet mark fractions against a shallow
        # threshold; macro bursts inflate alpha until the flow starves
        # (a dualpi2 lab measurably loses half its throughput), so L4S
        # senders gate batching off — an all-L4S lab is bit-identical
        # with the knob on.
        flows = [
            FlowConfig(0, cc="cubic", ecn="l4s", connections=2),
            FlowConfig(1, cc="reno", ecn="l4s"),
        ]
        kw = dict(
            capacity_mbps=30.0,
            duration_s=6.0,
            warmup_s=2.0,
            queue_discipline="dualpi2",
        )
        exact = simulate(flows, **kw)
        batched = simulate(flows, event_batching=True, **kw)
        assert batched == exact
        assert batched.total_marks() > 0

    def test_aggregate_preserved_with_classic_ecn_aqm(self):
        flows = [
            FlowConfig(0, cc="reno", ecn="classic", connections=2),
            FlowConfig(1, cc="cubic", ecn="classic"),
        ]
        kw = dict(
            capacity_mbps=30.0, duration_s=6.0, warmup_s=2.0, queue_discipline="codel"
        )
        exact = simulate(flows, **kw)
        batched = simulate(flows, event_batching=True, **kw)
        assert batched.total_throughput_mbps() == pytest.approx(
            exact.total_throughput_mbps(), rel=0.05
        )

    def test_batching_reduces_event_count(self):
        # The point of the knob: O(1) events per macro instead of per
        # segment.  Count scheduler callbacks through the network.
        from repro.netsim.packet.network import Network

        def run_events(**kwargs):
            network = Network(
                capacity_mbps=LARGE_WINDOW["capacity_mbps"],
                base_rtt_ms=LARGE_WINDOW["base_rtt_ms"],
                buffer_bdp=LARGE_WINDOW["buffer_bdp"],
                **kwargs,
            )
            for i in range(4):
                network.add_flow(FlowConfig(i, cc="reno", connections=2))
            network.run(
                duration_s=LARGE_WINDOW["duration_s"],
                warmup_s=LARGE_WINDOW["warmup_s"],
            )
            return network.scheduler.events_processed

        exact_events = run_events()
        batched_events = run_events(event_batching=True)
        assert batched_events < exact_events / 2


class TestBatchedSweepDeterminism:
    """jobs=1 vs jobs=4 stay bit-identical with batching enabled."""

    def _arms(self):
        # Batched arms of a 4-unit connection-count sweep, spelled as the
        # ``netsim.packet_arm`` specs the fleet and benchmarks submit.
        return [
            ScenarioSpec(
                task="netsim.packet_arm",
                params={
                    "flows": tuple(
                        FlowConfig(i, cc="reno", connections=2 if i < k else 1, treated=i < k)
                        for i in range(4)
                    ),
                    "capacity_mbps": 20.0,
                    "duration_s": 4.0,
                    "warmup_s": 1.0,
                    "event_batching": True,
                },
            )
            for k in (0, 2, 4)
        ]

    def test_jobs4_equals_serial_with_batching(self):
        serial = ParallelExecutor(jobs=1).map(self._arms())
        parallel = ParallelExecutor(jobs=4).map(self._arms())
        assert serial == parallel
        assert all(r.engine.events_processed > 0 for r in serial)


def make_sender(cls=RenoSender, **kwargs):
    sent = []
    sender = cls(
        flow_id=0,
        scheduler=EventScheduler(),
        transmit=sent.append,
        **kwargs,
    )
    return sender, sent


class TestBatchSizing:
    def test_unbatched_sender_always_sends_singles(self):
        sender, _ = make_sender(initial_cwnd=100.0)
        assert sender._batch_size() == 1

    def test_macro_capped_by_window_fraction(self):
        # cwnd 40 → limit//4 = 10, below the requested 16.
        sender, _ = make_sender(batch_segments=16, initial_cwnd=40.0)
        assert sender._batch_size() == 10

    def test_macro_capped_by_requested_batch(self):
        sender, _ = make_sender(batch_segments=8, initial_cwnd=100.0)
        assert sender._batch_size() == 8

    def test_small_windows_degrade_to_singles(self):
        # cwnd below MIN_MACROS_PER_WINDOW: limit//4 == 0 → macro of 1.
        sender, _ = make_sender(batch_segments=8, initial_cwnd=3.0)
        assert sender._batch_size() == 1

    def test_macro_never_overshoots_window_headroom(self):
        sender, _ = make_sender(batch_segments=8, initial_cwnd=40.0)
        sender.inflight = 37
        assert sender._batch_size() == 3

    def test_macro_never_mixes_retransmissions_and_new_data(self):
        sender, _ = make_sender(batch_segments=8, initial_cwnd=100.0)
        sender._pending_retransmissions = 3
        assert sender._batch_size() == 3

    def test_macro_respects_finite_transfer_budget(self):
        sender, _ = make_sender(
            batch_segments=8, initial_cwnd=100.0, transfer_bytes=5 * 1500
        )
        assert sender._batch_size() == 5

    def test_batch_segments_validation(self):
        with pytest.raises(ValueError):
            make_sender(batch_segments=0)


class TestMacroCounterScaling:
    def _sender_with_macro_inflight(self, segments=5):
        sender, sent = make_sender(batch_segments=8, initial_cwnd=100.0)
        sender.batch_segments = 1  # stop further sends from batching
        sender.start()
        packet = Packet(
            flow_id=0,
            sequence=99,
            size_bytes=1500 * segments,
            send_time=0.0,
            segments=segments,
        )
        sender.inflight += segments
        return sender, packet

    def test_ack_scales_counters_by_segments(self):
        sender, packet = self._sender_with_macro_inflight(segments=5)
        acked_before = sender.packets_acked
        inflight_before = sender.inflight
        sender.handle_ack(packet, rtt_sample=0.02)
        assert sender.packets_acked == acked_before + 5
        assert sender.inflight <= inflight_before - 5 + sender.window_limit()

    def test_loss_scales_counters_but_reduces_once(self):
        sender, packet = self._sender_with_macro_inflight(segments=5)
        cwnd_before = sender.cwnd
        sender.paced = True  # suppress immediate retransmit sends
        sender._pacing_timer_armed = True
        sender.handle_loss(packet)
        assert sender.packets_lost == 5
        # One congestion event: a single multiplicative decrease, not five.
        assert sender.cwnd == pytest.approx(cwnd_before * 0.5)
        assert sender._pending_retransmissions == 5

    def test_batched_reno_growth_matches_serial_acks(self):
        # n singles vs one n-segment macro: congestion-avoidance growth
        # must agree to first order.
        serial, _ = make_sender(initial_cwnd=50.0)
        serial.ssthresh = 1.0
        batched, _ = make_sender(initial_cwnd=50.0)
        batched.ssthresh = 1.0
        one = Packet(flow_id=0, sequence=0, size_bytes=1500, send_time=0.0)
        for _ in range(8):
            serial.on_ack(one, 0.02, segments=1)
        macro = Packet(
            flow_id=0, sequence=0, size_bytes=1500 * 8, send_time=0.0, segments=8
        )
        batched.on_ack(macro, 0.02, segments=8)
        assert batched.cwnd == pytest.approx(serial.cwnd, rel=1e-3)

    def test_batched_cubic_growth_matches_serial_acks(self):
        # The Cubic twin: n singles and one n-segment macro step toward
        # the same cubic target W(t) and must agree to first order.
        one = Packet(flow_id=0, sequence=0, size_bytes=1500, send_time=0.0)

        def two_seconds_after_a_loss():
            sender, _ = make_sender(CubicSender, initial_cwnd=200.0)
            sender.scheduler.run(until=1.0)
            sender.on_loss(one)  # W_max = 200, cwnd = 140, new epoch
            sender.on_ack(one, 0.02, segments=1)  # the epoch starts at t = 1 s
            sender.scheduler.run(until=3.0)  # W(2 s) is ~185, far above cwnd
            return sender

        serial = two_seconds_after_a_loss()
        batched = two_seconds_after_a_loss()
        start = serial.cwnd
        for _ in range(8):
            serial.on_ack(one, 0.02, segments=1)
        macro = Packet(
            flow_id=0, sequence=0, size_bytes=1500 * 8, send_time=0.0, segments=8
        )
        batched.on_ack(macro, 0.02, segments=8)
        assert serial.cwnd > start + 2.0  # the cubic target, not the floor, drives growth
        assert batched.cwnd == pytest.approx(serial.cwnd, rel=1e-3)

    def test_bbr_macro_takes_one_delivery_sample(self):
        # Sampling once per segment would multiply delivered bytes by
        # the segment count; a macro-packet must sample exactly once.
        sender, _ = make_sender(BBRSender, batch_segments=8, initial_cwnd=100.0)
        sender.start()
        macro = Packet(
            flow_id=0, sequence=0, size_bytes=1500 * 4, send_time=0.0, segments=4
        )
        delivered_before = sender._delivered_bytes_total
        sender.on_ack(macro, 0.02, segments=4)
        assert sender._delivered_bytes_total == delivered_before + 1500 * 4


class TestPacketPool:
    def test_acquire_returns_fresh_when_empty(self):
        pool = PacketPool()
        packet = pool.acquire(flow_id=1, sequence=2, size_bytes=1500, send_time=0.5)
        assert (pool.acquired, pool.reused, len(pool)) == (1, 0, 0)
        assert packet.flow_id == 1 and packet.sequence == 2

    def test_reuse_rewrites_every_field(self):
        pool = PacketPool()
        first = pool.acquire(
            flow_id=1,
            sequence=2,
            size_bytes=3000,
            send_time=0.5,
            is_retransmission=True,
            ecn_capable=True,
            l4s=True,
            segments=2,
        )
        first.ce_marked = True  # simulate an AQM mark before retirement
        pool.release(first)
        second = pool.acquire(flow_id=7, sequence=9, size_bytes=1500, send_time=1.5)
        assert second is first  # the slot really was reused
        assert second == Packet(
            flow_id=7, sequence=9, size_bytes=1500, send_time=1.5
        )
        assert (pool.acquired, pool.reused) == (2, 1)

    def test_len_tracks_free_slots(self):
        pool = PacketPool()
        packets = [
            pool.acquire(flow_id=0, sequence=i, size_bytes=1500, send_time=0.0)
            for i in range(3)
        ]
        for packet in packets:
            pool.release(packet)
        assert len(pool) == 3
        pool.acquire(flow_id=0, sequence=9, size_bytes=1500, send_time=1.0)
        assert len(pool) == 2

    def test_simulation_actually_reuses_slots(self):
        from repro.netsim.packet.network import Network

        network = Network(capacity_mbps=10.0)
        network.add_flow(FlowConfig(0, cc="reno"))
        network.run(duration_s=2.0, warmup_s=0.5)
        assert network._pool.reused > 0
        # Live slots at any instant are bounded by inflight packets, so
        # the pool keeps allocation roughly at the high-water mark
        # instead of one object per send.
        fresh = network._pool.acquired - network._pool.reused
        assert fresh < network._pool.acquired / 2
