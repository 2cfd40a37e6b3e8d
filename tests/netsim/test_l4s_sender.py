"""Tests for the DCTCP/Prague (L4S) sender response.

The contract: ``ecn="l4s"`` keeps a per-RTT EWMA of the marked fraction
(``l4s_alpha``) and reacts to an echoed mark with a *proportional* cut —
``cwnd *= 1 - alpha/2`` — instead of the classic loss-equivalent
reduction; ``ecn=True`` stays an exact alias for ``ecn="classic"``; and
BBR ignores marks in both modes.
"""

import pytest

from repro.netsim.packet.engine import EventScheduler
from repro.netsim.packet.packets import Packet
from repro.netsim.packet.simulation import FlowConfig, simulate
from repro.netsim.packet.tcp import BBRSender, CubicSender, RenoSender
from repro.netsim.traffic.arrivals import PoissonArrivals
from repro.netsim.traffic.sizes import FixedSizes
from repro.netsim.traffic.source import TrafficSource


def make_sender(cls=RenoSender, ecn="l4s", **kwargs):
    scheduler = EventScheduler()
    sent = []
    sender = cls(0, scheduler, sent.append, ecn=ecn, **kwargs)
    return sender, scheduler, sent


def make_ce_packet(sender, ce=True, sequence=0):
    return Packet(
        flow_id=0,
        sequence=sequence,
        size_bytes=sender.mss_bytes,
        send_time=sender.scheduler.now,
        ecn_capable=True,
        l4s=sender.ecn_mode == "l4s",
        ce_marked=ce,
    )


def ack_packet(sender, ce=False, sequence=0):
    packet = make_ce_packet(sender, ce=ce, sequence=sequence)
    sender.handle_ack(packet, sender.base_rtt_s)
    return packet


class TestEcnModeNormalization:
    def test_bool_true_is_classic(self):
        sender, _, _ = make_sender(ecn=True)
        assert sender.ecn is True
        assert sender.ecn_mode == "classic"

    def test_bool_false_is_no_ecn(self):
        sender, _, _ = make_sender(ecn=False)
        assert sender.ecn is False
        assert sender.ecn_mode is None

    def test_l4s_mode(self):
        sender, _, _ = make_sender(ecn="l4s")
        assert sender.ecn is True
        assert sender.ecn_mode == "l4s"

    def test_invalid_mode_rejected_everywhere(self):
        with pytest.raises(ValueError):
            make_sender(ecn="bogus")
        with pytest.raises(ValueError):
            FlowConfig(0, ecn="bogus")
        with pytest.raises(ValueError):
            TrafficSource(
                arrivals=PoissonArrivals(1.0),
                sizes=FixedSizes(1000.0),
                ecn="bogus",
            )

    @pytest.mark.parametrize("sneaky", [0, 1, 0.0])
    def test_non_bool_scalars_rejected_at_config_time(self, sneaky):
        # 0 == False and 1 == True, so an equality-based check would let
        # these through config validation only to crash mid-simulation;
        # the shared normalizer rejects them up front, everywhere.
        with pytest.raises(ValueError):
            FlowConfig(0, ecn=sneaky)
        with pytest.raises(ValueError):
            make_sender(ecn=sneaky)
        with pytest.raises(ValueError):
            TrafficSource(
                arrivals=PoissonArrivals(1.0),
                sizes=FixedSizes(1000.0),
                ecn=sneaky,
            )

    def test_l4s_packets_carry_the_flag(self):
        sender, _, sent = make_sender(ecn="l4s")
        sender.start()
        assert sent and all(p.l4s and p.ecn_capable for p in sent)

    def test_classic_packets_do_not(self):
        sender, _, sent = make_sender(ecn="classic")
        sender.start()
        assert sent and all(not p.l4s and p.ecn_capable for p in sent)


class TestProportionalCut:
    def test_cut_is_proportional_to_alpha(self):
        sender, _, _ = make_sender()
        sender.start()
        sender.cwnd = 100.0
        sender.l4s_alpha = 0.2
        sender.on_ecn_mark(make_ce_packet(sender))
        assert sender.cwnd == pytest.approx(100.0 * (1.0 - 0.2 / 2.0))
        assert sender.ssthresh == pytest.approx(sender.cwnd)

    def test_saturated_alpha_halves_like_classic(self):
        sender, _, _ = make_sender()
        sender.start()
        sender.cwnd = 100.0
        sender.l4s_alpha = 1.0
        sender.on_ecn_mark(make_ce_packet(sender))
        assert sender.cwnd == pytest.approx(50.0)

    def test_cut_respects_the_window_floor(self):
        sender, _, _ = make_sender()
        sender.start()
        sender.cwnd = 2.0
        sender.l4s_alpha = 1.0
        sender.on_ecn_mark(make_ce_packet(sender))
        assert sender.cwnd >= 2.0

    def test_classic_mode_still_halves_regardless_of_marks_density(self):
        sender, _, _ = make_sender(ecn="classic")
        sender.start()
        sender.cwnd = 100.0
        sender.ssthresh = 100.0  # out of slow start
        sender.on_ecn_mark(make_ce_packet(sender))
        assert sender.cwnd == pytest.approx(50.0)

    def test_cubic_epoch_resets_with_the_cut(self):
        sender, _, _ = make_sender(cls=CubicSender)
        sender.start()
        sender.cwnd = 100.0
        sender.ssthresh = 100.0
        sender._epoch_start = 1.0
        sender.l4s_alpha = 0.5
        sender.on_l4s_mark(make_ce_packet(sender))
        assert sender.cwnd == pytest.approx(75.0)
        assert sender._epoch_start is None
        assert sender._w_max == pytest.approx(100.0)

    def test_bbr_ignores_l4s_marks(self):
        sender, _, _ = make_sender(cls=BBRSender)
        sender.start()
        before = sender.window_limit()
        for seq in range(5):
            ack_packet(sender, ce=True, sequence=seq)
        assert sender.window_limit() >= before // 2  # no mark-driven collapse
        assert sender.packets_marked == 5


class TestAlphaEstimator:
    def test_alpha_tracks_the_marked_fraction(self):
        sender, scheduler, _ = make_sender()
        sender.start()
        sender.cwnd = 1000.0  # keep the ack clock from stalling
        # Feed several RTT windows of half-marked acks; alpha must move
        # from its conservative 1.0 toward 0.5.
        seq = 0
        for window in range(30):
            for i in range(10):
                ack_packet(sender, ce=i % 2 == 0, sequence=seq)
                seq += 1
            scheduler.now = scheduler.now + sender.srtt + 1e-6
        assert 0.4 < sender.l4s_alpha < 0.75

    def test_alpha_decays_without_marks(self):
        sender, scheduler, _ = make_sender()
        sender.start()
        sender.cwnd = 1000.0
        sender.l4s_alpha = 1.0
        seq = 0
        for window in range(40):
            for i in range(10):
                ack_packet(sender, ce=False, sequence=seq)
                seq += 1
            scheduler.now = scheduler.now + sender.srtt + 1e-6
        assert sender.l4s_alpha < 0.2


class TestClassicAliasEquivalence:
    def test_true_and_classic_simulate_identically(self):
        def run(ecn):
            return simulate(
                [FlowConfig(0, ecn=ecn), FlowConfig(1, ecn=ecn)],
                capacity_mbps=20.0,
                duration_s=6.0,
                warmup_s=2.0,
                queue_discipline="codel",
            )

        a, b = run(True), run("classic")
        assert a.flows == b.flows
        assert a.queue_marks == b.queue_marks
        assert a.total_drops == b.total_drops


class TestL4sEndToEnd:
    def test_l4s_flow_on_dualpi2_is_marked_never_dropped(self):
        result = simulate(
            [FlowConfig(0, ecn="l4s", paced=True), FlowConfig(1, ecn="l4s", paced=True)],
            capacity_mbps=20.0,
            duration_s=6.0,
            warmup_s=2.0,
            queue_discipline="dualpi2",
            buffer_bdp=20.0,  # deep buffer: every AQM decision is a mark
            seed=0,
        )
        for flow in result.flows:
            assert flow.packets_marked > 0
            assert flow.packets_lost == 0
            assert flow.retransmit_fraction == 0.0
        assert result.total_marks() > 0

    def test_l4s_marks_are_fine_grained(self):
        # The step threshold signals far more often than classic CoDel's
        # control law — the fine-grained signal the proportional response
        # needs.  Compare marks for the same offered load.
        def marks(ecn, discipline):
            result = simulate(
                [FlowConfig(0, ecn=ecn, paced=True), FlowConfig(1, ecn=ecn, paced=True)],
                capacity_mbps=20.0,
                duration_s=6.0,
                warmup_s=2.0,
                queue_discipline=discipline,
                buffer_bdp=20.0,
                seed=0,
            )
            return result.total_marks()

        assert marks("l4s", "dualpi2") > 3 * marks("classic", "codel")
