"""Golden-output tests for the batched engine and the ECN/AQM paths.

``test_event_batching.py`` checks these runs only within tolerances of
their unbatched twins.  The values below pin them *exactly* — same
floats, same counters — so an engine refactor that claims to change no
result (one scheduler, one congestion-control law per sender) can prove
it on the batched sender path, on classic ECN under CoDel and on L4S
under DualPI2.
"""

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
