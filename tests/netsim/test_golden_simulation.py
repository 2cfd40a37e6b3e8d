"""Golden-output test: the network refactor must not change ``simulate()``.

The expected values below were captured from the pre-refactor
single-bottleneck harness (one hard-coded drop-tail queue, one symmetric
RTT).  The composable :class:`~repro.netsim.packet.network.Network`
builder must reproduce them *exactly* — same floats, same counters — for
the default topology, proving the refactor is a pure reorganization.
"""

import pytest

from repro.netsim.packet.network import Network
from repro.netsim.packet.simulation import FlowConfig, simulate

#: (flow_id, throughput_mbps, retransmit_fraction, packets_sent, packets_lost)
GOLDEN_MIXED = [
    (0, 9.666, 0.00708128078817734, 4512, 95),
    (1, 4.251, 0.009103641456582634, 2012, 48),
    (2, 6.459, 0.0027688047992616522, 2642, 21),
    (3, 9.624, 0.019704433497536946, 6301, 290),
]
GOLDEN_MIXED_DROPS = 454
GOLDEN_MIXED_MAX_OCCUPANCY = 75000.0

GOLDEN_TWO_RENO = [
    (0, 5.428, 0.007342143906020558, 1807, 29),
    (1, 4.572, 0.010443864229765013, 1564, 21),
]
GOLDEN_TWO_RENO_DROPS = 50
GOLDEN_TWO_RENO_MAX_OCCUPANCY = 24000.0


def _mixed_flows():
    return [
        FlowConfig(0, cc="reno", connections=2, treated=True),
        FlowConfig(1, cc="reno", connections=1),
        FlowConfig(2, cc="cubic", paced=True),
        FlowConfig(3, cc="bbr"),
    ]


class TestGoldenOutput:
    def test_mixed_cc_run_is_bit_identical(self):
        result = simulate(
            _mixed_flows(),
            capacity_mbps=30.0,
            base_rtt_ms=20.0,
            buffer_bdp=1.0,
            duration_s=6.0,
            warmup_s=2.0,
        )
        observed = [
            (f.flow_id, f.throughput_mbps, f.retransmit_fraction, f.packets_sent, f.packets_lost)
            for f in result.flows
        ]
        assert observed == GOLDEN_MIXED  # exact equality, no approx
        assert result.total_drops == GOLDEN_MIXED_DROPS
        assert result.max_queue_occupancy_bytes == GOLDEN_MIXED_MAX_OCCUPANCY
        assert result.queue_drops == {"bottleneck": GOLDEN_MIXED_DROPS}

    def test_two_reno_run_is_bit_identical(self):
        result = simulate(
            [FlowConfig(0), FlowConfig(1)],
            capacity_mbps=10.0,
            duration_s=4.0,
            warmup_s=1.0,
        )
        observed = [
            (f.flow_id, f.throughput_mbps, f.retransmit_fraction, f.packets_sent, f.packets_lost)
            for f in result.flows
        ]
        assert observed == GOLDEN_TWO_RENO
        assert result.total_drops == GOLDEN_TWO_RENO_DROPS
        assert result.max_queue_occupancy_bytes == GOLDEN_TWO_RENO_MAX_OCCUPANCY

    def test_explicit_network_build_matches_simulate(self):
        # Building the default topology by hand through the Network
        # builder is the same program simulate() runs.
        via_simulate = simulate(
            _mixed_flows(),
            capacity_mbps=30.0,
            duration_s=6.0,
            warmup_s=2.0,
        )
        network = Network(capacity_mbps=30.0, base_rtt_ms=20.0, buffer_bdp=1.0)
        for config in _mixed_flows():
            network.add_flow(config)
        via_network = network.run(duration_s=6.0, warmup_s=2.0)
        assert via_simulate == via_network

    def test_default_knobs_are_inert(self):
        # Spelling out the refactor's new defaults must not change anything.
        base = simulate([FlowConfig(0), FlowConfig(1)], capacity_mbps=10.0,
                        duration_s=4.0, warmup_s=1.0)
        explicit = simulate(
            [FlowConfig(0, rtt_ms=None, path=None), FlowConfig(1)],
            capacity_mbps=10.0,
            duration_s=4.0,
            warmup_s=1.0,
            queue_discipline="droptail",
            seed=123,  # RNG is never drawn on a loss-free drop-tail path
        )
        assert base == explicit

    def test_seed_inert_for_default_topology(self):
        runs = [
            simulate([FlowConfig(0)], capacity_mbps=10.0, duration_s=3.0,
                     warmup_s=1.0, seed=seed)
            for seed in (None, 0, 7)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_probe_does_not_perturb_golden_run(self):
        # Telemetry on must not move a single golden float or counter:
        # the probe barriers pop the exact same event order as a single
        # scheduler run.
        from repro.obs.probe import ProbeConfig

        probed = simulate(
            _mixed_flows(),
            capacity_mbps=30.0,
            base_rtt_ms=20.0,
            buffer_bdp=1.0,
            duration_s=6.0,
            warmup_s=2.0,
            probe=ProbeConfig(interval_s=0.5),
        )
        observed = [
            (f.flow_id, f.throughput_mbps, f.retransmit_fraction, f.packets_sent, f.packets_lost)
            for f in probed.flows
        ]
        assert observed == GOLDEN_MIXED  # exact equality, no approx
        assert probed.total_drops == GOLDEN_MIXED_DROPS
        assert probed.max_queue_occupancy_bytes == GOLDEN_MIXED_MAX_OCCUPANCY
        assert probed.probe is not None
        assert len(probed.probe.sample_times) == 12  # 6 s at 0.5 s cadence


class TestGoldenSweepCells:
    def test_quick_aqm_bias_cells_stable(self):
        # The figure.cells values printed by `repro sweep topo_aqm --quick`;
        # pins the full chain sweep -> executor -> experiment -> cells.
        from repro import api

        cells = api.figure_spec("topo_aqm", quick=True).run()
        assert set(cells) == {
            "bias_throughput@0.5:droptail",
            "tte_throughput_mbps:droptail",
            "ab_throughput_mbps@0.5:droptail",
            "bias_throughput@0.5:codel",
            "tte_throughput_mbps:codel",
            "ab_throughput_mbps@0.5:codel",
        }
        assert cells["bias_throughput@0.5:droptail"] == pytest.approx(3.534, abs=0.01)
        assert cells["bias_throughput@0.5:codel"] == pytest.approx(3.258, abs=0.01)
