"""Tests for the packet-level allocation sweep harness."""

import pytest

from repro.netsim.packet.network import PathConfig, parking_lot_path, parking_lot_queues
from repro.netsim.packet.simulation import FlowConfig
from repro.netsim.packet.sweep import run_packet_sweep
from repro.runner.cache import ResultCache


class SpecRecorder:
    """Stand-in executor capturing the specs a sweep would run."""

    def __init__(self):
        self.specs = []

    def map(self, specs):
        self.specs = list(specs)
        return [None] * len(specs)


@pytest.fixture(scope="module")
def connection_sweep():
    """A small connections sweep: endpoints plus the 50% allocation."""
    return run_packet_sweep(
        4,
        treatment_factory=lambda i: FlowConfig(i, cc="reno", connections=2),
        control_factory=lambda i: FlowConfig(i, cc="reno", connections=1),
        allocations=(0, 2, 4),
        capacity_mbps=30.0,
        duration_s=12.0,
        warmup_s=4.0,
    )


class TestPacketSweep:
    def test_requested_allocations_present(self, connection_sweep):
        assert sorted(connection_sweep.results) == [0, 2, 4]

    def test_curve_endpoints_defined(self, connection_sweep):
        curve = connection_sweep.curve("throughput_mbps")
        assert 0.0 in [p for p in curve.allocations]
        assert 1.0 in [p for p in curve.allocations]

    def test_ab_estimate_shows_connection_advantage(self, connection_sweep):
        ab = connection_sweep.ab_estimate("throughput_mbps", 0.5)
        control = connection_sweep.curve("throughput_mbps").mu_control(0.5)
        assert ab / control > 0.4  # treated apps get a clear advantage

    def test_throughput_tte_is_small(self, connection_sweep):
        tte = connection_sweep.tte("throughput_mbps")
        baseline = connection_sweep.curve("throughput_mbps").mu_control(0.0)
        assert abs(tte) / baseline < 0.15

    def test_retransmit_curve_available(self, connection_sweep):
        curve = connection_sweep.curve("retransmit_fraction")
        assert curve.mu_control(0.0) >= 0.0

    def test_empty_rtt_profile_is_rejected(self):
        with pytest.raises(ValueError, match="rtt_ms"):
            run_packet_sweep(
                2,
                treatment_factory=FlowConfig,
                control_factory=FlowConfig,
                rtt_ms=(),
                executor=SpecRecorder(),
            )

    def test_unknown_metric_raises(self, connection_sweep):
        with pytest.raises(KeyError):
            connection_sweep.curve("nope")

    def test_invalid_allocation_raises(self):
        with pytest.raises(ValueError):
            run_packet_sweep(
                2,
                treatment_factory=lambda i: FlowConfig(i),
                control_factory=lambda i: FlowConfig(i),
                allocations=(5,),
            )

    def test_invalid_n_units_raises(self):
        with pytest.raises(ValueError):
            run_packet_sweep(
                0,
                treatment_factory=lambda i: FlowConfig(i),
                control_factory=lambda i: FlowConfig(i),
            )


class TestLossRateComposition:
    """Regression: ``loss_rate`` must compose with factory-supplied paths
    instead of being silently ignored."""

    def _specs(self, factory, loss_rate):
        recorder = SpecRecorder()
        run_packet_sweep(
            2,
            treatment_factory=factory,
            control_factory=factory,
            allocations=(1,),
            loss_rate=loss_rate,
            seed=3,
            executor=recorder,
        )
        (spec,) = recorder.specs
        return spec

    def test_factory_path_without_loss_picks_up_sweep_rate(self):
        factory = lambda i: FlowConfig(i, path=PathConfig(rtt_ms=40.0))  # noqa: E731
        spec = self._specs(factory, loss_rate=0.02)
        for flow in spec.params["flows"]:
            assert flow.path.loss_rate == 0.02
            assert flow.path.rtt_ms == 40.0  # the rest of the path survives

    def test_explicit_factory_loss_rate_wins(self):
        factory = lambda i: FlowConfig(i, path=PathConfig(loss_rate=0.3))  # noqa: E731
        spec = self._specs(factory, loss_rate=0.02)
        for flow in spec.params["flows"]:
            assert flow.path.loss_rate == 0.3

    def test_no_factory_path_still_gets_loss_segment(self):
        spec = self._specs(lambda i: FlowConfig(i), loss_rate=0.05)
        for flow in spec.params["flows"]:
            assert flow.path.loss_rate == 0.05

    def test_composed_loss_actually_drops_packets(self):
        # Plenty of capacity: without the composed loss segment no packet
        # would ever be lost; with it, losses appear despite empty queues.
        sweep = run_packet_sweep(
            2,
            treatment_factory=lambda i: FlowConfig(i, path=PathConfig(rtt_ms=30.0)),
            control_factory=lambda i: FlowConfig(i, path=PathConfig(rtt_ms=30.0)),
            allocations=(1,),
            capacity_mbps=100.0,
            duration_s=5.0,
            warmup_s=1.0,
            loss_rate=0.03,
            seed=1,
        )
        result = sweep.results[1]
        assert sum(f.packets_lost for f in result.flows) > 0
        assert result.total_drops > sum(result.queue_drops.values())


class TestInertSeedNormalization:
    """Regression: a seed with no RNG consumer must not enter the content
    key (it used to split the cache across identical replications)."""

    def _spec_seed(self, seed=7, **sweep_kwargs):
        recorder = SpecRecorder()
        run_packet_sweep(
            2,
            treatment_factory=lambda i: FlowConfig(i),
            control_factory=lambda i: FlowConfig(i),
            allocations=(1,),
            seed=seed,
            executor=recorder,
            **sweep_kwargs,
        )
        return recorder.specs[0].seed

    def test_seed_normalized_for_loss_free_droptail(self):
        assert self._spec_seed() is None

    def test_seed_normalized_for_codel_and_fq_codel(self):
        assert self._spec_seed(queue_discipline="codel") is None
        assert self._spec_seed(queue_discipline="fq_codel") is None

    def test_seed_kept_when_red_consumes_it(self):
        assert self._spec_seed(queue_discipline="red") == 7

    def test_seed_normalized_when_red_seed_pinned_in_params(self):
        assert self._spec_seed(
            queue_discipline="red", queue_params={"seed": 5}
        ) is None

    def test_seed_kept_for_lossy_paths(self):
        assert self._spec_seed(loss_rate=0.01) == 7

    def test_seed_kept_for_lossy_cross_traffic(self):
        cross = (FlowConfig(100, path=PathConfig(loss_rate=0.02)),)
        assert self._spec_seed(cross_traffic=cross) == 7

    def test_seed_kept_for_seeded_extra_queue(self):
        extra = parking_lot_queues(2, 20.0, discipline="red")
        assert self._spec_seed(extra_queues=extra) == 7

    def test_different_seeds_share_cache_when_inert(self, tmp_path):
        cache = ResultCache(tmp_path)

        def run(seed):
            return run_packet_sweep(
                2,
                treatment_factory=lambda i: FlowConfig(i, connections=2),
                control_factory=lambda i: FlowConfig(i),
                allocations=(0, 2),
                capacity_mbps=20.0,
                duration_s=4.0,
                warmup_s=1.0,
                seed=seed,
                cache=cache,
            )

        first = run(1)
        assert cache.hits == 0 and cache.misses == 2
        second = run(2)
        assert cache.hits == 2  # both arms reused despite the new seed
        assert first.results == second.results


class TestSweepTopologyKnobs:
    def test_extra_queues_and_cross_traffic_reach_the_arms(self):
        n_segments = 3
        sweep = run_packet_sweep(
            2,
            treatment_factory=lambda i: FlowConfig(
                i, connections=2, path=parking_lot_path(i, n_segments)
            ),
            control_factory=lambda i: FlowConfig(
                i, path=parking_lot_path(i, n_segments)
            ),
            allocations=(1,),
            capacity_mbps=20.0,
            duration_s=4.0,
            warmup_s=1.0,
            extra_queues=parking_lot_queues(n_segments, 20.0),
            cross_traffic=(
                FlowConfig(100, path=parking_lot_path(1, n_segments, span=1)),
            ),
        )
        result = sweep.results[1]
        assert [f.flow_id for f in result.flows] == [0, 1]
        assert {"seg0", "seg1", "seg2"} <= set(result.queue_drops)


class TestFactoryFieldsSurvive:
    def test_finite_transfers_complete_as_in_simulate(self):
        # The sweep sets only ``treated`` (and composes RTT/path): a
        # factory's finite transfer must reach the arm, so each flow's
        # completion matches a direct simulation of the same configs.
        from dataclasses import replace

        from repro.netsim.packet.simulation import simulate

        def factory(i):
            return FlowConfig(i, transfer_bytes=150_000)

        kwargs = dict(capacity_mbps=10.0, duration_s=3.0, warmup_s=0.5)
        sweep = run_packet_sweep(
            2, treatment_factory=factory, control_factory=factory, allocations=(1,), **kwargs
        )
        direct = simulate([replace(factory(0), treated=True), factory(1)], **kwargs)
        swept = sweep.results[1].flows
        assert [(f.completed, f.fct_s) for f in swept] == [
            (f.completed, f.fct_s) for f in direct.flows
        ]
        assert all(f.completed for f in swept)
