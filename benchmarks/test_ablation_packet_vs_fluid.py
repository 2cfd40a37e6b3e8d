"""Ablation A1: does the packet-level simulator agree with the fluid model?

The figure benchmarks use the fluid model because it encodes the
steady-state sharing results directly.  This ablation re-runs the
parallel-connections experiment (Figure 2a) on the packet-level
discrete-event simulator and checks that the fluid model's qualitative
conclusions — treated applications roughly double their throughput in an
A/B test, a full switch leaves aggregate throughput unchanged but raises
losses — emerge from first-principles window dynamics as well.

Known fidelity limits (see "Model fidelity limits" in
docs/architecture.md): the simplified packet model does not reproduce the
paced-vs-unpaced competition of Figure 2b or BBRv1's aggregate-share
behaviour of Figure 3 quantitatively; those require finer-grained burst
and inflight modelling than this substrate implements.
"""

import pytest
from benchmarks._helpers import run_once

from repro.netsim.packet.simulation import FlowConfig, simulate

CAPACITY_MBPS = 50.0
SIM_KWARGS = dict(capacity_mbps=CAPACITY_MBPS, base_rtt_ms=20, duration_s=20, warmup_s=5)


def _ab_test():
    """Half the applications use two connections, half use one."""
    flows = [FlowConfig(i, cc="reno", connections=2, treated=True) for i in range(5)] + [
        FlowConfig(5 + i, cc="reno", connections=1) for i in range(5)
    ]
    return simulate(flows, **SIM_KWARGS)


def _all_one():
    return simulate([FlowConfig(i, cc="reno", connections=1) for i in range(10)], **SIM_KWARGS)


def _all_two():
    return simulate([FlowConfig(i, cc="reno", connections=2) for i in range(10)], **SIM_KWARGS)


def test_ablation_connections_on_packet_simulator(benchmark):
    ab = run_once(benchmark, _ab_test)
    all_one = _all_one()
    all_two = _all_two()

    ab_ratio = ab.group_mean_throughput(True) / ab.group_mean_throughput(False)
    tte_ratio = all_two.total_throughput_mbps() / all_one.total_throughput_mbps()
    print(f"\npacket-level A/B throughput ratio (2 conns / 1 conn): {ab_ratio:.2f}")
    print(f"packet-level all-two vs all-one aggregate throughput ratio: {tte_ratio:.2f}")
    print(
        f"packet-level drops: all-one={all_one.total_drops}, all-two={all_two.total_drops}"
    )

    # Fluid-model conclusion 1: two connections look like a big win in an A/B test.
    assert ab_ratio > 1.5
    # Fluid-model conclusion 2: the full switch does not change aggregate throughput.
    assert tte_ratio == pytest.approx(1.0, abs=0.1)
    # Fluid-model conclusion 3: the full switch increases losses.
    assert all_two.total_drops > all_one.total_drops
    # Both configurations keep the bottleneck busy.
    assert all_one.total_throughput_mbps() == pytest.approx(CAPACITY_MBPS, rel=0.15)
