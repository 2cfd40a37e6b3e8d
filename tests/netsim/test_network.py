"""Tests for the composable network layer (paths, per-flow RTT, loss,
cross traffic, parking-lot topologies)."""

import math

import pytest

from repro.netsim.packet.network import (
    DEFAULT_QUEUE,
    Network,
    PathConfig,
    QueueConfig,
    parking_lot_path,
    parking_lot_queues,
)
from repro.netsim.packet.simulation import FlowConfig, simulate
from repro.netsim.traffic.arrivals import PoissonArrivals
from repro.netsim.traffic.sizes import FixedSizes
from repro.netsim.traffic.source import TrafficSource


class TestPathConfig:
    def test_defaults(self):
        path = PathConfig()
        assert path.rtt_ms is None
        assert path.loss_rate == 0.0
        assert path.queues == (DEFAULT_QUEUE,)

    def test_invalid_loss_rate_raises(self):
        with pytest.raises(ValueError):
            PathConfig(loss_rate=1.0)
        with pytest.raises(ValueError):
            PathConfig(loss_rate=-0.1)

    def test_invalid_rtt_raises(self):
        for rtt_ms in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                PathConfig(rtt_ms=rtt_ms)

    def test_empty_queue_sequence_raises(self):
        with pytest.raises(ValueError):
            PathConfig(queues=())

    def test_duplicate_queue_in_path_raises(self):
        # Routing is by queue name; a repeated name would loop forever.
        with pytest.raises(ValueError, match="distinct"):
            PathConfig(queues=("bottleneck", "access", "bottleneck"))


class TestPerFlowRtt:
    def test_short_rtt_flow_wins_under_droptail(self):
        # Classic Reno RTT unfairness: throughput ~ 1/RTT on a shared
        # drop-tail bottleneck.
        result = simulate(
            [FlowConfig(0, rtt_ms=10.0), FlowConfig(1, rtt_ms=80.0)],
            capacity_mbps=20.0,
            duration_s=8.0,
            warmup_s=2.0,
        )
        short, long_ = result.flow(0), result.flow(1)
        assert short.throughput_mbps > 2.0 * long_.throughput_mbps

    def test_flow_rtt_overrides_path_rtt(self):
        override = simulate(
            [FlowConfig(0, rtt_ms=10.0, path=PathConfig(rtt_ms=80.0))],
            capacity_mbps=10.0, duration_s=4.0, warmup_s=1.0,
        )
        direct = simulate(
            [FlowConfig(0, rtt_ms=10.0)],
            capacity_mbps=10.0, duration_s=4.0, warmup_s=1.0,
        )
        assert override == direct

    def test_path_rtt_used_when_flow_rtt_unset(self):
        via_path = simulate(
            [FlowConfig(0, path=PathConfig(rtt_ms=40.0))],
            capacity_mbps=10.0, duration_s=4.0, warmup_s=1.0,
        )
        via_flow = simulate(
            [FlowConfig(0, rtt_ms=40.0)],
            capacity_mbps=10.0, duration_s=4.0, warmup_s=1.0,
        )
        assert via_path == via_flow

    def test_invalid_flow_rtt_raises(self):
        for rtt_ms in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                FlowConfig(0, rtt_ms=rtt_ms)


class TestRandomLoss:
    def test_loss_segment_decouples_loss_from_congestion(self):
        # Plenty of capacity: the queue never drops, yet the impaired flow
        # still loses packets and underperforms its clean peer.
        result = simulate(
            [FlowConfig(0, path=PathConfig(loss_rate=0.02)), FlowConfig(1)],
            capacity_mbps=50.0,
            duration_s=6.0,
            warmup_s=2.0,
            seed=3,
        )
        impaired, clean = result.flow(0), result.flow(1)
        assert impaired.packets_lost > 0
        assert impaired.throughput_mbps < clean.throughput_mbps
        # Random losses are counted in total_drops but not queue drops.
        assert result.total_drops > result.queue_drops[DEFAULT_QUEUE]

    def test_loss_runs_deterministic_given_seed(self):
        def run(seed):
            return simulate(
                [FlowConfig(0, path=PathConfig(loss_rate=0.05))],
                capacity_mbps=20.0, duration_s=5.0, warmup_s=1.0, seed=seed,
            )

        assert run(9) == run(9)
        assert run(9) != run(10)


class TestMultiQueuePaths:
    def test_series_path_limited_by_slowest_queue(self):
        network = Network(capacity_mbps=50.0, base_rtt_ms=20.0)
        network.add_queue("access", capacity_mbps=10.0, buffer_bdp=1.0)
        network.add_flow(FlowConfig(0, path=PathConfig(queues=("access", DEFAULT_QUEUE))))
        network.add_flow(FlowConfig(1))
        result = network.run(duration_s=6.0, warmup_s=2.0)
        constrained, free = result.flow(0), result.flow(1)
        assert constrained.throughput_mbps < 11.0  # capped by the access link
        assert free.throughput_mbps > 30.0
        assert set(result.queue_drops) == {"access", DEFAULT_QUEUE}

    def test_unknown_queue_in_path_raises(self):
        network = Network()
        with pytest.raises(KeyError, match="unknown queue"):
            network.add_flow(FlowConfig(0, path=PathConfig(queues=("nope",))))

    def test_unknown_queue_error_names_the_flow_or_source(self):
        message = "routes through unknown queue 'nope'; known queues: ['bottleneck']"
        network = Network()
        with pytest.raises(KeyError) as flow_error:
            network.add_flow(FlowConfig(3, path=PathConfig(queues=("nope",))))
        assert flow_error.value.args[0] == f"flow 3 {message}"
        network.add_flow(FlowConfig(0))
        network.add_traffic_source(
            TrafficSource(
                arrivals=PoissonArrivals(1.0),
                sizes=FixedSizes(1500.0),
                path=PathConfig(queues=("nope",)),
            )
        )
        with pytest.raises(KeyError) as source_error:
            network.run(duration_s=1.0, warmup_s=0.5)
        assert source_error.value.args[0] == f"traffic source 0 {message}"

    @pytest.mark.parametrize("buffer_bdp", [0.5, 1.0, 0.001])
    def test_default_queue_buffer_is_bdp_sized_with_a_two_segment_floor(self, buffer_bdp):
        network = Network(capacity_mbps=24.0, base_rtt_ms=20.0, buffer_bdp=buffer_bdp)
        bdp_bytes = 24e6 / 8.0 * 20.0 / 1000.0
        expected = max(buffer_bdp * bdp_bytes, 2 * network.mss_bytes)
        assert network.queues[DEFAULT_QUEUE].buffer_bytes == expected

    def test_duplicate_queue_name_raises(self):
        network = Network()
        with pytest.raises(ValueError, match="already exists"):
            network.add_queue(DEFAULT_QUEUE, capacity_mbps=5.0, buffer_bdp=1.0)

    def test_buffer_spec_exactly_one_of(self):
        network = Network()
        with pytest.raises(ValueError):
            network.add_queue("q1", capacity_mbps=5.0)
        with pytest.raises(ValueError):
            network.add_queue("q2", capacity_mbps=5.0, buffer_bytes=1000.0, buffer_bdp=1.0)


class TestCrossTraffic:
    def test_cross_traffic_excluded_from_results_but_competes(self):
        # A lone measured flow against heavy cross traffic: the result
        # reports one flow, yet its throughput is a fraction of the link.
        solo = simulate(
            [FlowConfig(0)], capacity_mbps=20.0, duration_s=6.0, warmup_s=2.0
        )
        crowded = simulate(
            [FlowConfig(0)],
            capacity_mbps=20.0,
            duration_s=6.0,
            warmup_s=2.0,
            cross_traffic=[FlowConfig(100 + i) for i in range(3)],
        )
        assert [f.flow_id for f in crowded.flows] == [0]
        assert crowded.flow(0).throughput_mbps < 0.5 * solo.flow(0).throughput_mbps

    def test_cross_traffic_drops_appear_in_queue_counters(self):
        result = simulate(
            [FlowConfig(0)],
            capacity_mbps=20.0,
            duration_s=6.0,
            warmup_s=2.0,
            cross_traffic=[FlowConfig(100 + i) for i in range(3)],
        )
        # The queue saw much more traffic than the one measured flow sent.
        assert result.queue_drops[DEFAULT_QUEUE] > result.flow(0).packets_lost

    def test_cross_traffic_id_collision_raises(self):
        with pytest.raises(ValueError, match="unique"):
            simulate(
                [FlowConfig(0)],
                duration_s=2.0,
                warmup_s=1.0,
                cross_traffic=[FlowConfig(0)],
            )

    def test_cross_traffic_alone_is_rejected(self):
        network = Network()
        network.add_cross_traffic(FlowConfig(7))
        with pytest.raises(ValueError, match="at least one flow"):
            network.run(duration_s=2.0, warmup_s=1.0)


class TestQueueConfig:
    def test_add_queue_config_round_trip(self):
        network = Network(capacity_mbps=50.0)
        queue = network.add_queue_config(
            QueueConfig(name="access", capacity_mbps=10.0, buffer_bytes=30_000.0)
        )
        assert network.queues["access"] is queue
        assert queue.buffer_bytes == 30_000.0

    def test_defaults_to_one_bdp_buffer(self):
        network = Network(capacity_mbps=50.0, base_rtt_ms=20.0)
        queue = network.add_queue_config(QueueConfig(name="q", capacity_mbps=10.0))
        assert queue.buffer_bytes == pytest.approx(10e6 / 8.0 * 0.02)

    def test_params_reach_the_discipline(self):
        network = Network()
        queue = network.add_queue_config(
            QueueConfig(
                name="aqm",
                capacity_mbps=10.0,
                discipline="codel",
                params={"target_delay_s": 0.02},
            )
        )
        assert queue._codel.target_s == 0.02

    def test_invalid_configs_raise(self):
        with pytest.raises(ValueError):
            QueueConfig(name="q", capacity_mbps=0.0)
        with pytest.raises(ValueError):
            QueueConfig(name="q", capacity_mbps=1.0, buffer_bytes=1.0, buffer_bdp=1.0)


class TestParkingLotBuilders:
    def test_queues_named_in_sequence(self):
        queues = parking_lot_queues(3, 20.0)
        assert [q.name for q in queues] == ["seg0", "seg1", "seg2"]
        assert all(q.capacity_mbps == 20.0 for q in queues)

    def test_path_spans_consecutive_segments(self):
        assert parking_lot_path(1, 4).queues == ("seg1", "seg2")
        assert parking_lot_path(0, 4, span=3).queues == ("seg0", "seg1", "seg2")

    def test_path_start_clamped_to_chain(self):
        assert parking_lot_path(5, 4).queues == ("seg2", "seg3")

    def test_single_segment_path_for_cross_traffic(self):
        assert parking_lot_path(2, 4, span=1).queues == ("seg2",)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            parking_lot_queues(1, 20.0)
        with pytest.raises(ValueError):
            parking_lot_path(0, 4, span=0)
        with pytest.raises(ValueError):
            parking_lot_path(0, 4, span=5)
        with pytest.raises(ValueError):
            parking_lot_path(-1, 4)

    def test_parking_lot_simulation_runs_end_to_end(self):
        result = simulate(
            [
                FlowConfig(i, path=parking_lot_path(i % 3, 4))
                for i in range(4)
            ],
            capacity_mbps=20.0,
            duration_s=6.0,
            warmup_s=2.0,
            extra_queues=parking_lot_queues(4, 20.0),
            cross_traffic=[
                FlowConfig(100 + s, path=parking_lot_path(s, 4, span=1))
                for s in range(4)
            ],
        )
        assert len(result.flows) == 4
        assert {f"seg{i}" for i in range(4)} <= set(result.queue_drops)
        assert result.total_throughput_mbps() > 0.0


class TestFqCodelThroughNetwork:
    def test_subqueues_keyed_by_application_not_connection(self):
        # Per-unit fair queueing: a 2-connection app and a 1-connection
        # app get (approximately) the same share, unlike under drop-tail.
        def shares(discipline):
            result = simulate(
                [FlowConfig(0, connections=2), FlowConfig(1, connections=1)],
                capacity_mbps=20.0,
                duration_s=8.0,
                warmup_s=2.0,
                queue_discipline=discipline,
            )
            return result.flow(0).throughput_mbps, result.flow(1).throughput_mbps

        fq_two, fq_one = shares("fq_codel")
        dt_two, dt_one = shares("droptail")
        assert fq_two / fq_one < 1.2  # near-equal under per-unit FQ
        assert dt_two / dt_one > 1.5  # connection count pays under FIFO


class TestNetworkValidation:
    def test_duplicate_flow_id_raises(self):
        network = Network()
        network.add_flow(FlowConfig(0))
        with pytest.raises(ValueError, match="already attached"):
            network.add_flow(FlowConfig(0))

    def test_run_without_flows_raises(self):
        with pytest.raises(ValueError, match="at least one flow"):
            Network().run(duration_s=2.0, warmup_s=1.0)

    def test_warmup_must_precede_duration(self):
        network = Network()
        network.add_flow(FlowConfig(0))
        with pytest.raises(ValueError, match="duration_s"):
            network.run(duration_s=1.0, warmup_s=1.0)

    def test_invalid_network_parameters_raise(self):
        with pytest.raises(ValueError):
            Network(capacity_mbps=0.0)
        with pytest.raises(ValueError):
            Network(base_rtt_ms=0.0)


class TestAqmEndToEnd:
    def test_codel_keeps_rtts_lower_than_droptail(self):
        # AQM's point: a short standing queue.  Mean measured RTT inflation
        # under CoDel must be below drop-tail's (1-BDP buffer doubles RTT).
        def mean_srtt(discipline):
            network = Network(
                capacity_mbps=20.0, base_rtt_ms=20.0, queue_discipline=discipline
            )
            for i in range(4):
                network.add_flow(FlowConfig(i))
            network.run(duration_s=8.0, warmup_s=2.0)
            senders = network._senders.values()
            return sum(s.srtt for s in senders) / len(senders)

        assert mean_srtt("codel") < mean_srtt("droptail")

    def test_red_discipline_runs_through_simulate(self):
        result = simulate(
            [FlowConfig(i) for i in range(3)],
            capacity_mbps=20.0,
            duration_s=6.0,
            warmup_s=2.0,
            queue_discipline="red",
            seed=2,
        )
        assert result.total_drops > 0
        assert result.total_throughput_mbps() > 15.0

    def test_simulate_seed_reaches_red_queue(self):
        # The network builder forwards its seed to seed-consuming
        # disciplines, so different seeds must perturb RED's drops.
        def run(seed):
            return simulate(
                [FlowConfig(i) for i in range(3)],
                capacity_mbps=20.0, duration_s=6.0, warmup_s=2.0,
                queue_discipline="red", seed=seed,
            )

        assert run(2) == run(2)
        assert run(2) != run(3)

    def test_explicit_queue_params_seed_wins(self):
        # A seed pinned in a queue's params overrides the network-level seed.
        def run(sim_seed, params):
            red = QueueConfig(name="red", capacity_mbps=20.0, discipline="red", params=params)
            return simulate(
                [FlowConfig(i, path=PathConfig(queues=("red",))) for i in range(3)],
                capacity_mbps=50.0, duration_s=6.0, warmup_s=2.0,
                extra_queues=(red,), seed=sim_seed,
            )

        assert run(1, {"seed": 5}) == run(2, {"seed": 5})
        # Unpinned, the network seed reaches the same queue's lottery.
        assert run(1, {}) != run(2, {})


def segment_chain(capacities):
    """A parking-lot chain whose segments differ only in capacity."""
    return tuple(
        QueueConfig(name=f"seg{i}", capacity_mbps=float(c), buffer_bdp=1.0)
        for i, c in enumerate(capacities)
    )


class TestHeterogeneousParkingLot:
    """Per-segment capacities: the binding bottleneck can migrate."""

    def test_uniform_chain_is_parking_lot_queues(self):
        assert parking_lot_queues(3, 20.0) == segment_chain((20, 20, 20))

    def _chain_run(self, capacities):
        # A flow spanning the whole chain congests exactly one segment:
        # the narrowest.  Ack-clocked packets arrive at the wider
        # segments already paced to the binding rate, so no other queue
        # ever builds a backlog.
        n = len(capacities)
        return simulate(
            [FlowConfig(0, connections=2, path=parking_lot_path(0, n, span=n))],
            capacity_mbps=50.0,
            duration_s=6.0,
            warmup_s=2.0,
            extra_queues=segment_chain(capacities),
        )

    def test_binding_bottleneck_follows_the_narrow_segment(self):
        # Skewing the capacity allocation moves the congestion: the
        # narrow segment collects every drop, and flipping the skew
        # migrates the binding bottleneck to the other end of the chain.
        lopsided_first = self._chain_run((8.0, 30.0, 30.0))
        lopsided_last = self._chain_run((30.0, 30.0, 8.0))
        assert lopsided_first.queue_drops["seg0"] > 0
        assert lopsided_first.queue_drops["seg1"] == 0
        assert lopsided_first.queue_drops["seg2"] == 0
        assert lopsided_last.queue_drops["seg2"] > 0
        assert lopsided_last.queue_drops["seg0"] == 0
        assert lopsided_last.queue_drops["seg1"] == 0
        # Throughput is pinned by the 8 Mb/s binding segment either way.
        assert lopsided_first.flow(0).throughput_mbps < 9.0
        assert lopsided_last.flow(0).throughput_mbps < 9.0

    def test_binding_bottleneck_migrates_with_traffic_allocation(self):
        # Same heterogeneous chain, different *traffic* allocation: load
        # piled onto the roomy segment eventually makes it the binding
        # one, even though the narrow segment has less capacity.
        def run(extra_connections_on_seg1):
            flows = [
                FlowConfig(0, path=parking_lot_path(0, 2, span=2)),
                FlowConfig(1, path=parking_lot_path(0, 2, span=1)),
                FlowConfig(
                    2,
                    connections=8 if extra_connections_on_seg1 else 1,
                    path=parking_lot_path(1, 2, span=1),
                ),
            ]
            return simulate(
                flows,
                capacity_mbps=50.0,
                duration_s=6.0,
                warmup_s=2.0,
                extra_queues=segment_chain((10.0, 25.0)),
            )

        balanced = run(False)
        shifted = run(True)

        def drop_share_seg1(result):
            total = result.queue_drops["seg0"] + result.queue_drops["seg1"]
            return result.queue_drops["seg1"] / max(total, 1)

        # Lightly loaded, the narrow seg0 binds; piling connections onto
        # seg1 migrates the drop concentration to the roomy segment.
        assert drop_share_seg1(balanced) < 0.5
        assert drop_share_seg1(shifted) > drop_share_seg1(balanced) + 0.2


#: Constructors given NaN or infinity, which would otherwise reach the
#: event loop (``simulate`` passes its capacity and RTT to ``Network``).
NON_FINITE_NETWORK = {
    "queue-capacity-nan": lambda: QueueConfig("q", capacity_mbps=math.nan),
    "queue-capacity-inf": lambda: QueueConfig("q", capacity_mbps=math.inf),
    "network-capacity-nan": lambda: Network(capacity_mbps=math.nan),
    "network-capacity-inf": lambda: Network(capacity_mbps=math.inf),
    "network-base-rtt-nan": lambda: Network(base_rtt_ms=math.nan),
    "network-base-rtt-inf": lambda: Network(base_rtt_ms=math.inf),
    "flow-transfer-bytes-nan": lambda: FlowConfig(0, transfer_bytes=math.nan),
    "flow-transfer-bytes-inf": lambda: FlowConfig(0, transfer_bytes=math.inf),
}


@pytest.mark.parametrize("build", NON_FINITE_NETWORK.values(), ids=NON_FINITE_NETWORK)
def test_non_finite_network_parameter_is_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_unbounded_transfer_is_still_none():
    assert FlowConfig(0, transfer_bytes=None).transfer_bytes is None
    assert FlowConfig(0, transfer_bytes=0.0).transfer_bytes == 0.0
