"""Golden-output tests for the batched engine and the ECN/AQM paths.

``test_event_batching.py`` checks these runs only within tolerances of
their unbatched twins.  The values below pin them *exactly* — same
floats, same counters — so an engine refactor that claims to change no
result (one scheduler, one congestion-control law per sender) can prove
it on the batched sender path, on classic ECN under CoDel and on L4S
under DualPI2.

The unbatched cases below pin branches of the packet hot path that the
single-bottleneck goldens of ``test_golden_simulation.py`` never take:
a random-loss path segment, a two-hop parking-lot route, FQ-CoDel's
per-unit classifier over a two-connection application, and a finite
transfer completing beside bulk flows.
"""

from repro.netsim.packet.network import PathConfig, parking_lot_path, parking_lot_queues
from repro.netsim.packet.simulation import FlowConfig, simulate

#: (flow_id, throughput_mbps, retransmit_fraction, packets_sent,
#:  packets_lost, packets_marked)
GOLDEN_BATCHED_LARGE_WINDOW = [
    (0, 48.108000000000004, 0.0014074012749399785, 15513, 153, 0),
    (1, 53.18, 0.0011193194537721066, 16685, 175, 0),
    (2, 52.556, 0.0003785011355034065, 16494, 165, 0),
    (3, 46.168000000000006, 0.0004314063848144953, 14874, 165, 0),
]
GOLDEN_BATCHED_LARGE_WINDOW_DROPS = {"bottleneck": 87}
GOLDEN_BATCHED_LARGE_WINDOW_MARKS = {"bottleneck": 0}
#: (events_processed, events_scheduled)
GOLDEN_BATCHED_LARGE_WINDOW_EVENTS = (32104, 32187)

GOLDEN_CODEL_CLASSIC_ECN = [
    (0, 15.536999999999999, 0.0, 8385, 78, 75),
    (1, 14.463, 0.0, 6605, 22, 40),
]
GOLDEN_CODEL_CLASSIC_ECN_DROPS = {"bottleneck": 15}
GOLDEN_CODEL_CLASSIC_ECN_MARKS = {"bottleneck": 39}
GOLDEN_CODEL_CLASSIC_ECN_EVENTS = (11621, 11640)

GOLDEN_DUALPI2_L4S = [
    (0, 11.58, 0.0, 6001, 0, 1394),
    (1, 17.964, 0.0, 8293, 0, 1774),
]
GOLDEN_DUALPI2_L4S_DROPS = {"bottleneck": 0}
GOLDEN_DUALPI2_L4S_MARKS = {"bottleneck": 3168}
GOLDEN_DUALPI2_L4S_EVENTS = (28538, 28589)

GOLDEN_RANDOM_LOSS = [
    (0, 2.632, 0.02373887240356083, 910, 26, 0),
    (1, 1.72, 0.033632286995515695, 590, 25, 0),
    (2, 15.648, 0.008601062484189223, 5434, 203, 0),
]
GOLDEN_RANDOM_LOSS_DROPS = {"bottleneck": 225}
GOLDEN_RANDOM_LOSS_MARKS = {"bottleneck": 0}
GOLDEN_RANDOM_LOSS_EVENTS = (18847, 18884)
GOLDEN_RANDOM_LOSS_RANDOM_LOSSES = 31

GOLDEN_PARKING_LOT = [
    (0, 8.08, 0.0019646365422396855, 2729, 6, 0),
    (1, 5.34, 0.015407190022010272, 1794, 46, 0),
    (2, 1.58, 0.0702576112412178, 607, 54, 0),
]
GOLDEN_PARKING_LOT_DROPS = {"bottleneck": 0, "seg0": 0, "seg1": 106, "seg2": 0}
GOLDEN_PARKING_LOT_MARKS = {"bottleneck": 0, "seg0": 0, "seg1": 0, "seg2": 0}
GOLDEN_PARKING_LOT_EVENTS = (14556, 14583)

GOLDEN_FQ_CODEL_UNITS = [
    (0, 6.676, 0.018213866039952998, 2344, 71, 0),
    (1, 6.732, 0.00589622641509434, 2202, 20, 0),
    (2, 6.592, 0.0, 2177, 3, 15),
]
GOLDEN_FQ_CODEL_UNITS_DROPS = {"bottleneck": 95}
GOLDEN_FQ_CODEL_UNITS_MARKS = {"bottleneck": 15}
GOLDEN_FQ_CODEL_UNITS_EVENTS = (13296, 13331)

#: The flow tuple plus (completed, fct_s).
GOLDEN_FINITE_BESIDE_BULK = [
    (0, 0.528, 0.0234375, 415, 15, 0, True, 1.574000000000029),
    (1, 4.224, 0.0019083969465648854, 1342, 8, 0, True, 2.995333333333287),
    (2, 4.968, 0.009426551453260016, 1554, 29, 0, None, None),
]
GOLDEN_FINITE_BESIDE_BULK_DROPS = {"bottleneck": 52}
GOLDEN_FINITE_BESIDE_BULK_MARKS = {"bottleneck": 0}
GOLDEN_FINITE_BESIDE_BULK_EVENTS = (7353, 7371)


def _observed(result):
    return [
        (
            f.flow_id,
            f.throughput_mbps,
            f.retransmit_fraction,
            f.packets_sent,
            f.packets_lost,
            f.packets_marked,
        )
        for f in result.flows
    ]


def _events(result):
    return (result.engine.events_processed, result.engine.events_scheduled)


class TestGoldenFastPaths:
    def test_batched_large_window_run_is_bit_identical(self):
        # large_window_flows() at LARGE_WINDOW from test_event_batching.py.
        result = simulate(
            [FlowConfig(i, cc="reno", connections=2) for i in range(4)],
            capacity_mbps=200.0,
            base_rtt_ms=20.0,
            buffer_bdp=1.0,
            duration_s=4.0,
            warmup_s=1.0,
            event_batching=True,
        )
        assert _observed(result) == GOLDEN_BATCHED_LARGE_WINDOW  # exact, no approx
        assert result.queue_drops == GOLDEN_BATCHED_LARGE_WINDOW_DROPS
        assert result.queue_marks == GOLDEN_BATCHED_LARGE_WINDOW_MARKS
        assert _events(result) == GOLDEN_BATCHED_LARGE_WINDOW_EVENTS

    def test_batched_codel_classic_ecn_run_is_bit_identical(self):
        result = simulate(
            [
                FlowConfig(0, cc="reno", ecn="classic", connections=2),
                FlowConfig(1, cc="cubic", ecn="classic"),
            ],
            capacity_mbps=30.0,
            duration_s=6.0,
            warmup_s=2.0,
            queue_discipline="codel",
            event_batching=True,
        )
        assert _observed(result) == GOLDEN_CODEL_CLASSIC_ECN
        assert result.queue_drops == GOLDEN_CODEL_CLASSIC_ECN_DROPS
        assert result.queue_marks == GOLDEN_CODEL_CLASSIC_ECN_MARKS
        assert _events(result) == GOLDEN_CODEL_CLASSIC_ECN_EVENTS

    def test_dualpi2_l4s_run_is_bit_identical(self):
        # L4S senders never batch, so this is also the unbatched run.
        result = simulate(
            [
                FlowConfig(0, cc="cubic", ecn="l4s", connections=2),
                FlowConfig(1, cc="reno", ecn="l4s"),
            ],
            capacity_mbps=30.0,
            duration_s=6.0,
            warmup_s=2.0,
            queue_discipline="dualpi2",
            event_batching=True,
        )
        assert _observed(result) == GOLDEN_DUALPI2_L4S
        assert result.queue_drops == GOLDEN_DUALPI2_L4S_DROPS
        assert result.queue_marks == GOLDEN_DUALPI2_L4S_MARKS
        assert _events(result) == GOLDEN_DUALPI2_L4S_EVENTS

    def test_random_loss_path_run_is_bit_identical(self):
        # Two flows lose packets on an impaired segment before the queue
        # (the network's ingress branch); the BBR flow's path is clean.
        lossy = PathConfig(loss_rate=0.02)
        result = simulate(
            [
                FlowConfig(0, cc="reno", path=lossy),
                FlowConfig(1, cc="cubic", paced=True, path=lossy),
                FlowConfig(2, cc="bbr"),
            ],
            capacity_mbps=20.0,
            duration_s=4.0,
            warmup_s=1.0,
            seed=5,
        )
        assert _observed(result) == GOLDEN_RANDOM_LOSS
        assert result.queue_drops == GOLDEN_RANDOM_LOSS_DROPS
        assert result.queue_marks == GOLDEN_RANDOM_LOSS_MARKS
        assert _events(result) == GOLDEN_RANDOM_LOSS_EVENTS
        assert result.engine.random_losses == GOLDEN_RANDOM_LOSS_RANDOM_LOSSES

    def test_two_hop_parking_lot_run_is_bit_identical(self):
        # Flows 0 and 1 cross two segments each (a queue's departure
        # forwards to the next hop); flow 2 crosses seg1 alone.
        result = simulate(
            [
                FlowConfig(0, cc="reno", path=parking_lot_path(0, 3)),
                FlowConfig(1, cc="cubic", connections=2, path=parking_lot_path(1, 3)),
                FlowConfig(2, cc="reno", path=parking_lot_path(1, 3, span=1)),
            ],
            capacity_mbps=20.0,
            duration_s=4.0,
            warmup_s=1.0,
            extra_queues=parking_lot_queues(3, 15.0),
        )
        assert _observed(result) == GOLDEN_PARKING_LOT
        assert result.queue_drops == GOLDEN_PARKING_LOT_DROPS
        assert result.queue_marks == GOLDEN_PARKING_LOT_MARKS
        assert _events(result) == GOLDEN_PARKING_LOT_EVENTS

    def test_fq_codel_per_unit_run_is_bit_identical(self):
        # The network's classifier puts both of flow 0's connections in
        # one sub-queue; flow 2 is CE-marked instead of dropped.
        result = simulate(
            [
                FlowConfig(0, cc="reno", connections=2, treated=True),
                FlowConfig(1, cc="cubic"),
                FlowConfig(2, cc="reno", ecn="classic"),
            ],
            capacity_mbps=20.0,
            duration_s=4.0,
            warmup_s=1.0,
            queue_discipline="fq_codel",
        )
        assert _observed(result) == GOLDEN_FQ_CODEL_UNITS
        assert result.queue_drops == GOLDEN_FQ_CODEL_UNITS_DROPS
        assert result.queue_marks == GOLDEN_FQ_CODEL_UNITS_MARKS
        assert _events(result) == GOLDEN_FQ_CODEL_UNITS_EVENTS

    def test_finite_transfers_beside_bulk_run_is_bit_identical(self):
        # Two finite transfers (one paced) complete mid-run, after which
        # their stale feedback is ignored; flow 2 sends to the end.
        result = simulate(
            [
                FlowConfig(0, cc="reno", transfer_bytes=600_000),
                FlowConfig(1, cc="cubic", transfer_bytes=2_000_000, paced=True),
                FlowConfig(2, cc="reno"),
            ],
            capacity_mbps=10.0,
            duration_s=4.0,
            warmup_s=1.0,
        )
        observed = [
            row + (f.completed, f.fct_s)
            for row, f in zip(_observed(result), result.flows, strict=True)
        ]
        assert observed == GOLDEN_FINITE_BESIDE_BULK
        assert result.queue_drops == GOLDEN_FINITE_BESIDE_BULK_DROPS
        assert result.queue_marks == GOLDEN_FINITE_BESIDE_BULK_MARKS
        assert _events(result) == GOLDEN_FINITE_BESIDE_BULK_EVENTS
