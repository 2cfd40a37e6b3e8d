"""Sender-lifecycle edge cases for finite transfers.

The dynamic-traffic subsystem makes the set of active flows a simulation
variable; these tests pin the corners of that lifecycle: zero-byte
transfers, completion racing in-flight retransmissions, dynamic ECN
senders arriving while an AQM is actively marking, and the RED
idle-decay interaction when the last flow departs and leaves the queue
empty.
"""

import pytest

from repro.netsim.packet.network import Network, PathConfig
from repro.netsim.packet.packets import Packet
from repro.netsim.packet.simulation import FlowConfig, simulate
from repro.netsim.traffic.arrivals import TraceArrivals
from repro.netsim.traffic.sizes import FixedSizes
from repro.netsim.traffic.source import TrafficSource


class TestFiniteTransfers:
    def test_finite_flow_completes_with_fct(self):
        result = simulate(
            [FlowConfig(0), FlowConfig(1, transfer_bytes=300_000)],
            capacity_mbps=20.0,
            duration_s=8.0,
            warmup_s=2.0,
        )
        finite = result.flow(1)
        assert finite.completed is True
        assert finite.fct_s > 0.0
        # The unlimited application is untouched by FCT accounting.
        unlimited = result.flow(0)
        assert unlimited.completed is None
        assert unlimited.fct_s is None

    def test_incomplete_transfer_reports_not_completed(self):
        result = simulate(
            [FlowConfig(0, transfer_bytes=1e12)],
            capacity_mbps=10.0,
            duration_s=3.0,
            warmup_s=1.0,
        )
        assert result.flow(0).completed is False
        assert result.flow(0).fct_s is None

    def test_multi_connection_app_completes_when_last_connection_does(self):
        network = Network(capacity_mbps=20.0)
        network.add_flow(FlowConfig(0, connections=2, transfer_bytes=150_000))
        result = network.run(duration_s=8.0, warmup_s=2.0)
        senders = list(network._senders.values())
        assert all(s.completed for s in senders)
        expected = max(s.completion_time for s in senders) - min(
            s.start_time for s in senders
        )
        assert result.flow(0).fct_s == expected

    def test_completed_flow_frees_capacity_for_the_rest(self):
        # Once the finite flow retires mid-run, the survivor reclaims the
        # bottleneck: its throughput beats a run where the competitor
        # stays for the whole simulation.
        shared_forever = simulate(
            [FlowConfig(0), FlowConfig(1)],
            capacity_mbps=20.0, duration_s=10.0, warmup_s=2.0,
        )
        competitor_leaves = simulate(
            [FlowConfig(0), FlowConfig(1, transfer_bytes=400_000)],
            capacity_mbps=20.0, duration_s=10.0, warmup_s=2.0,
        )
        assert competitor_leaves.flow(1).completed is True
        assert (
            competitor_leaves.flow(0).throughput_mbps
            > 1.2 * shared_forever.flow(0).throughput_mbps
        )

    def test_invalid_transfer_bytes_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(0, transfer_bytes=-1.0)


class TestZeroByteTransfer:
    def test_completes_instantly_without_sending(self):
        result = simulate(
            [FlowConfig(0), FlowConfig(1, transfer_bytes=0)],
            capacity_mbps=10.0,
            duration_s=3.0,
            warmup_s=1.0,
        )
        zero = result.flow(1)
        assert zero.completed is True
        assert zero.fct_s == 0.0
        assert zero.packets_sent == 0
        assert zero.throughput_mbps == 0.0

    def test_zero_byte_dynamic_flows_count_as_completed(self):
        source = TrafficSource(
            arrivals=TraceArrivals((1.0, 2.0)), sizes=FixedSizes(0.0), label="z"
        )
        result = simulate(
            [FlowConfig(0)],
            capacity_mbps=10.0,
            duration_s=4.0,
            warmup_s=1.0,
            traffic_sources=[source],
        )
        stats = result.traffic["z"]
        assert stats.flows_started == 2
        assert stats.flows_completed == 2
        assert stats.completion_times_s == (0.0, 0.0)
        assert stats.bytes_acked == 0


class TestCompletionUnderRetransmission:
    def _lossy_network(self):
        network = Network(capacity_mbps=20.0, seed=4)
        network.add_flow(FlowConfig(0))  # keeps the simulation measurable
        network.add_flow(
            FlowConfig(1, transfer_bytes=150_000, path=PathConfig(loss_rate=0.1))
        )
        return network, network._senders[1]

    def test_transfer_completes_despite_losses(self):
        network, sender = self._lossy_network()
        snapshot = {}
        sender.on_complete = lambda s: snapshot.update(
            packets_sent=s.packets_sent, inflight=s.inflight
        )
        result = network.run(duration_s=10.0, warmup_s=2.0)
        assert sender.completed
        assert sender.packets_retransmitted > 0  # losses really happened
        # Completion is the moment the last needed chunk is acked, so
        # nothing of the transfer can still be in flight ...
        assert snapshot["inflight"] == 0
        # ... and the sender never transmits again afterwards.
        assert sender.packets_sent == snapshot["packets_sent"]
        assert result.flow(1).completed is True

    def test_stale_feedback_after_completion_is_ignored(self):
        network, sender = self._lossy_network()
        network.run(duration_s=10.0, warmup_s=2.0)
        assert sender.completed
        before = (
            sender.packets_sent,
            sender.packets_lost,
            sender.packets_acked,
            sender._pending_retransmissions,
        )
        stale = Packet(flow_id=1, sequence=99_999, size_bytes=1500, send_time=0.0)
        sender.handle_loss(stale)
        sender.handle_ack(stale, rtt_sample=0.02)
        after = (
            sender.packets_sent,
            sender.packets_lost,
            sender.packets_acked,
            sender._pending_retransmissions,
        )
        assert after == before


class TestDynamicEcnArrival:
    def test_sender_spawning_under_active_marking_gets_marked_not_dropped(self):
        # Saturate a CoDel bottleneck with ECN flows so CE-marking is in
        # full swing (marks pending in flight), then spawn dynamic ECN
        # senders into it: they must pick up marks, react without
        # retransmitting, and still complete their transfers.
        network = Network(capacity_mbps=12.0, queue_discipline="codel")
        for i in range(3):
            network.add_flow(FlowConfig(i, ecn=True))
        network.add_traffic_source(
            TrafficSource(
                arrivals=TraceArrivals((3.0, 3.5, 4.0)),
                sizes=FixedSizes(120_000.0),
                ecn=True,
                label="ecn-churn",
            )
        )
        result = network.run(duration_s=12.0, warmup_s=2.0)
        assert result.total_marks() > 0  # the AQM was marking
        dynamic = network._dynamic_senders[0]
        assert len(dynamic) == 3
        assert all(s.completed for s in dynamic)
        assert sum(s.packets_marked for s in dynamic) > 0
        # ECN semantics survive the dynamic arrival: every retransmission
        # traces back to a real drop (the hard buffer limit still drops),
        # never to a CE mark — marked packets were delivered and acked.
        assert all(s.packets_retransmitted == s.packets_lost for s in dynamic)
        assert all(s.packets_acked == 80 for s in dynamic)  # full transfer


class TestCeMarkOnCompletingAck:
    def test_mark_on_final_ack_is_counted_before_completion_exit(self):
        # Regression: the completion early-return must not skip the CE
        # accounting, or the sender tally stops reconciling with the
        # queues' whenever a finite ECN flow's last ack carries a mark.
        from repro.netsim.packet.engine import EventScheduler
        from repro.netsim.packet.tcp.reno import RenoSender

        sender = RenoSender(
            0, EventScheduler(), lambda p: None, transfer_bytes=4500, ecn=True
        )
        sender.start()
        for seq in range(3):
            packet = Packet(
                flow_id=0, sequence=seq, size_bytes=1500, send_time=0.0,
                ecn_capable=True, ce_marked=(seq == 2),
            )
            sender.handle_ack(packet, 0.02)
        assert sender.completed
        assert sender.packets_marked == 1


class TestRedIdleAfterLastDeparture:
    def test_last_flow_departure_triggers_idle_decay(self):
        # A finite measured flow congests a RED bottleneck, completes and
        # leaves the queue idle; a dynamic flow arrives seconds later.
        # The Floyd & Jacobson idle correction must have decayed the
        # stale EWMA by then, so the newcomer's opening burst is admitted.
        network = Network(capacity_mbps=10.0, queue_discipline="red", seed=0)
        network.add_flow(FlowConfig(0, transfer_bytes=600_000))
        network.add_traffic_source(
            TrafficSource(
                arrivals=TraceArrivals((8.0,)),
                sizes=FixedSizes(200_000.0),
                label="late",
            )
        )
        queue = network.queues["bottleneck"]
        probes = {}

        def probe(name):
            probes[name] = (queue._idle_since, queue._avg_bytes)

        network.scheduler.schedule(7.9, lambda: probe("before_late_arrival"))
        result = network.run(duration_s=14.0, warmup_s=1.0)

        assert result.flow(0).completed is True
        assert result.flow(0).fct_s < 7.0  # it really finished early
        idle_since, stale_avg = probes["before_late_arrival"]
        assert idle_since is not None  # the queue saw the departure ...
        assert idle_since > result.flow(0).fct_s * 0.5
        assert stale_avg > 0.0  # ... with EWMA still carrying the burst
        # The late flow completed: its first packets were not eaten by a
        # stale-high RED average (the pre-fix behaviour dropped them).
        late = result.traffic["late"]
        assert late.flows_completed == 1
