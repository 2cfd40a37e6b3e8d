"""Tests for the simplified TCP senders and the packet-level simulation."""

import pytest

from repro.netsim.packet.engine import EventScheduler
from repro.netsim.packet.packets import Packet
from repro.netsim.packet.simulation import FlowConfig, simulate
from repro.netsim.packet.tcp import BBRSender, CubicSender, RenoSender, make_sender


def make_reno(paced=False, initial_cwnd=10.0):
    sched = EventScheduler()
    sent = []
    sender = RenoSender(
        0,
        sched,
        transmit=sent.append,
        mss_bytes=1500,
        base_rtt_s=0.02,
        paced=paced,
        initial_cwnd=initial_cwnd,
    )
    return sched, sender, sent


def ack_packet(sender, packet, rtt=0.02):
    sender.handle_ack(packet, rtt)


class TestSenderBasics:
    def test_start_sends_initial_window(self):
        _, sender, sent = make_reno(initial_cwnd=10)
        sender.start()
        assert len(sent) == 10
        assert sender.inflight == 10

    def test_ack_opens_window_in_slow_start(self):
        _, sender, sent = make_reno(initial_cwnd=2)
        sender.start()
        before = sender.cwnd
        ack_packet(sender, sent[0])
        assert sender.cwnd == pytest.approx(before + 1.0)
        # Slow start sends two packets per ack (the acked slot plus growth).
        assert len(sent) == 4

    def test_loss_halves_window(self):
        _, sender, sent = make_reno(initial_cwnd=10)
        sender.start()
        sender.ssthresh = 1.0  # force congestion avoidance
        sender.cwnd = 10.0
        sender.handle_loss(sent[0])
        assert sender.cwnd == pytest.approx(5.0)

    def test_loss_schedules_retransmission(self):
        _, sender, sent = make_reno(initial_cwnd=4)
        sender.start()
        sender.handle_loss(sent[0])
        # The retransmission waits for the (halved) window to open again.
        for packet in sent[1:4]:
            ack_packet(sender, packet)
        retransmissions = [p for p in sent if p.is_retransmission]
        assert len(retransmissions) == 1
        assert sender.bytes_retransmitted == 1500

    def test_rtt_estimators_update(self):
        _, sender, sent = make_reno()
        sender.start()
        ack_packet(sender, sent[0], rtt=0.05)
        assert sender.min_rtt == pytest.approx(0.05)
        assert sender.srtt > 0.02

    def test_goodput_measurement_window(self):
        sched, sender, sent = make_reno(initial_cwnd=4)
        sender.start()
        sender.begin_measurement()
        for p in sent[:4]:
            ack_packet(sender, p)
        goodput = sender.goodput_mbps(end_time=1.0)
        assert goodput == pytest.approx(4 * 1500 * 8 / 1e6, rel=0.01)

    def test_retransmit_fraction_zero_without_losses(self):
        _, sender, sent = make_reno(initial_cwnd=4)
        sender.start()
        sender.begin_measurement()
        for p in sent[:4]:
            ack_packet(sender, p)
        assert sender.retransmit_fraction() == 0.0

    def test_invalid_parameters_raise(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            RenoSender(0, sched, lambda p: None, mss_bytes=0)
        with pytest.raises(ValueError):
            RenoSender(0, sched, lambda p: None, base_rtt_s=0)
        with pytest.raises(ValueError):
            RenoSender(0, sched, lambda p: None, initial_cwnd=0)


class TestPacedSender:
    def test_paced_sender_spreads_packets_over_time(self):
        sched, sender, sent = make_reno(paced=True, initial_cwnd=10)
        sender.start()
        # Pacing releases packets via timers instead of an immediate burst.
        assert len(sent) < 10
        sched.run(until=0.05)
        assert len(sent) == 10

    def test_pacing_rate_uses_slow_start_gain(self):
        _, sender, _ = make_reno(paced=True)
        in_ss = sender.current_pacing_rate_bps()
        sender.ssthresh = 1.0  # leave slow start
        in_ca = sender.current_pacing_rate_bps()
        assert in_ss > in_ca


class TestCubicSender:
    def test_loss_reduces_window_by_cubic_beta(self):
        sched = EventScheduler()
        sender = CubicSender(0, sched, lambda p: None, initial_cwnd=10)
        sender.ssthresh = 1.0
        sender.cwnd = 10.0
        sender.handle_loss(Packet(0, 0, 1500, 0.0))
        assert sender.cwnd == pytest.approx(7.0)

    def test_window_grows_after_ack(self):
        sched = EventScheduler()
        sent = []
        sender = CubicSender(0, sched, sent.append, initial_cwnd=4)
        sender.ssthresh = 1.0
        sender.start()
        before = sender.cwnd
        sender.handle_ack(sent[0], 0.02)
        assert sender.cwnd >= before


class TestBBRSender:
    def test_always_paced(self):
        sched = EventScheduler()
        sender = BBRSender(0, sched, lambda p: None, paced=False)
        assert sender.paced

    def test_loss_does_not_change_rate_model(self):
        sched = EventScheduler()
        sent = []
        sender = BBRSender(0, sched, sent.append)
        sender.start()
        sched.run(until=0.05)
        bw_before = sender.bottleneck_bw_bps
        sender.handle_loss(sent[0])
        assert sender.bottleneck_bw_bps == pytest.approx(bw_before)

    def test_bandwidth_estimate_from_acks(self):
        sched = EventScheduler()
        sent = []
        sender = BBRSender(0, sched, sent.append, base_rtt_s=0.02)
        sender.start()
        sched.run(until=0.1)
        for p in list(sent)[:5]:
            sched.run(until=sched.now)  # keep clock
            sender.handle_ack(p, 0.02)
        assert sender.bottleneck_bw_bps > 0
        assert sender.estimated_bdp_packets > 0

    def test_make_sender_factory(self):
        sched = EventScheduler()
        assert isinstance(make_sender("reno", 0, sched, lambda p: None), RenoSender)
        assert isinstance(make_sender("cubic", 0, sched, lambda p: None), CubicSender)
        assert isinstance(make_sender("bbr", 0, sched, lambda p: None), BBRSender)
        with pytest.raises(ValueError):
            make_sender("vegas", 0, sched, lambda p: None)


class TestPacketSimulation:
    """Integration tests of the single-bottleneck simulation."""

    def test_single_flow_achieves_near_capacity(self):
        result = simulate(
            [FlowConfig(0, cc="reno")],
            capacity_mbps=20,
            base_rtt_ms=20,
            duration_s=10,
            warmup_s=2,
        )
        assert result.flow(0).throughput_mbps == pytest.approx(20.0, rel=0.15)

    def test_reno_flows_share_fairly(self):
        result = simulate(
            [FlowConfig(i, cc="reno") for i in range(4)],
            capacity_mbps=40,
            base_rtt_ms=20,
            duration_s=15,
            warmup_s=5,
        )
        throughputs = [f.throughput_mbps for f in result.flows]
        assert sum(throughputs) == pytest.approx(40.0, rel=0.15)
        assert max(throughputs) < 2.0 * min(throughputs)

    def test_two_connections_get_roughly_double(self):
        flows = [FlowConfig(0, cc="reno", connections=2, treated=True)] + [
            FlowConfig(i, cc="reno") for i in range(1, 5)
        ]
        result = simulate(
            flows, capacity_mbps=30, base_rtt_ms=20, duration_s=15, warmup_s=5
        )
        ratio = result.group_mean_throughput(True) / result.group_mean_throughput(False)
        assert 1.5 < ratio < 2.6

    def test_full_connection_switch_has_no_throughput_tte(self):
        one = simulate(
            [FlowConfig(i, cc="reno", connections=1) for i in range(5)],
            capacity_mbps=30,
            duration_s=15,
            warmup_s=5,
        )
        two = simulate(
            [FlowConfig(i, cc="reno", connections=2) for i in range(5)],
            capacity_mbps=30,
            duration_s=15,
            warmup_s=5,
        )
        assert two.total_throughput_mbps() == pytest.approx(
            one.total_throughput_mbps(), rel=0.1
        )

    def test_more_connections_cause_more_drops(self):
        one = simulate(
            [FlowConfig(i, cc="reno", connections=1) for i in range(5)],
            capacity_mbps=30,
            duration_s=15,
            warmup_s=5,
        )
        two = simulate(
            [FlowConfig(i, cc="reno", connections=2) for i in range(5)],
            capacity_mbps=30,
            duration_s=15,
            warmup_s=5,
        )
        assert two.total_drops > one.total_drops

    def test_cubic_only_and_bbr_only_both_fill_the_link(self):
        for cc in ("cubic", "bbr"):
            result = simulate(
                [FlowConfig(i, cc=cc) for i in range(4)],
                capacity_mbps=40,
                duration_s=15,
                warmup_s=5,
            )
            assert result.total_throughput_mbps() == pytest.approx(40.0, rel=0.2)

    def test_duplicate_flow_ids_raise(self):
        with pytest.raises(ValueError):
            simulate([FlowConfig(0), FlowConfig(0)])

    def test_duration_must_exceed_warmup(self):
        with pytest.raises(ValueError):
            simulate([FlowConfig(0)], duration_s=1.0, warmup_s=2.0)

    def test_empty_flow_list_raises(self):
        with pytest.raises(ValueError):
            simulate([])

    def test_unknown_flow_lookup_raises(self):
        result = simulate([FlowConfig(0)], capacity_mbps=10, duration_s=5, warmup_s=1)
        with pytest.raises(KeyError):
            result.flow(99)

    def test_group_mean_requires_members(self):
        result = simulate([FlowConfig(0)], capacity_mbps=10, duration_s=5, warmup_s=1)
        with pytest.raises(ValueError):
            result.group_mean_throughput(True)

    def test_group_mean_rejects_unknown_metric(self):
        result = simulate([FlowConfig(0)], capacity_mbps=10, duration_s=2, warmup_s=1)
        assert result.group_mean("throughput_mbps", False) == result.flows[0].throughput_mbps
        with pytest.raises(KeyError):
            result.group_mean("nope", False)
