"""Probes and counters must never change what a simulation computes.

These tests pin the observability layer's two core contracts:

* **Non-perturbation** — running with a probe produces byte-identical
  flow results, drop counters and engine counters to running without
  one, for lab simulations and for fleet shards.
* **Content-key inertness** — every new telemetry knob defaults off and
  stays out of spec parameters when unset, so enabling observability on
  one run can never split another run's result cache.
"""

from dataclasses import replace

import pytest

from repro.netsim.fleet import FleetSpec, run_fleet
from repro.netsim.fleet.aggregate import QUEUE_DEPTH_CELL
from repro.netsim.packet.simulation import FlowConfig, simulate
from repro.obs import EngineCounters, ProbeConfig
from repro.runner.spec import content_key, get_task

PROBE = ProbeConfig(interval_s=0.5)


def _run(probe=None):
    return simulate(
        [FlowConfig(0, cc="reno", connections=2), FlowConfig(1, cc="cubic")],
        capacity_mbps=20.0,
        duration_s=4.0,
        warmup_s=1.0,
        probe=probe,
    )


class TestProbeNonPerturbation:
    def test_probed_run_is_bit_identical(self):
        plain = _run()
        probed = _run(probe=PROBE)
        assert plain.flows == probed.flows
        assert plain.total_drops == probed.total_drops
        assert plain.queue_drops == probed.queue_drops
        # Same events popped, same events scheduled: the probe barriers
        # did not add, remove or reorder a single scheduler event.
        assert plain.engine == probed.engine

    def test_probe_log_populated(self):
        probed = _run(probe=PROBE)
        log = probed.probe
        assert log is not None
        assert log.sample_times == tuple(k * 0.5 for k in range(1, 9))
        assert log.names("queue") == ("bottleneck",)
        assert log.names("flow") == ("conn0", "conn1", "conn2")
        depth = log.series("queue", "bottleneck", "occupancy_packets")
        assert len(depth) == 8
        cwnd = log.series("flow", "conn0", "cwnd")
        assert all(v > 0 for _, v in cwnd)

    def test_unprobed_run_has_no_log(self):
        assert _run().probe is None


class TestEngineCounters:
    def test_counter_schema(self):
        engine = _run().engine
        assert isinstance(engine, EngineCounters)
        assert engine.events_processed > 0
        assert engine.events_scheduled > 0
        assert engine.pool_acquired > 0
        assert set(engine.as_dict()) == {
            "events_processed",
            "events_scheduled",
            "pool_acquired",
            "pool_reused",
            "random_losses",
        }

    def test_processed_never_exceeds_scheduled(self):
        engine = _run().engine
        assert engine.events_processed <= engine.events_scheduled


class TestFleetProbing:
    SPEC = FleetSpec(units=40, edges=4, regions=2, duration_s=1.0, warmup_s=0.25)

    def test_fleet_estimates_unchanged_by_probing(self):
        plain = run_fleet(self.SPEC)
        probed = run_fleet(replace(self.SPEC, probe_interval_s=0.25))
        assert plain.ab_estimate("throughput_mbps") == probed.ab_estimate(
            "throughput_mbps"
        )
        assert plain.engine_counters()["events_processed"] == probed.engine_counters()[
            "events_processed"
        ]

    def test_probed_fleet_collects_queue_depth_cell(self):
        probed = run_fleet(replace(self.SPEC, probe_interval_s=0.25))
        cell = probed.stats.cells[QUEUE_DEPTH_CELL]
        # One sample per probe instant per shard, merged across the fleet.
        assert cell.stats.count >= self.SPEC.edges
        assert cell.stats.mean >= 0.0

    def test_unprobed_fleet_has_no_depth_cell(self):
        plain = run_fleet(self.SPEC)
        assert QUEUE_DEPTH_CELL not in plain.stats.cells

    def test_engine_counters_summary(self):
        counters = run_fleet(self.SPEC).engine_counters()
        assert counters["events_processed"] > 0
        assert counters["shards"] == self.SPEC.edges
        assert counters["unique_sims"] >= 1

    def test_negative_probe_interval_rejected(self):
        with pytest.raises(ValueError, match="probe_interval_s"):
            FleetSpec(units=40, edges=4, probe_interval_s=-1.0)


class TestContentKeyInertness:
    def test_probe_knob_absent_from_unprobed_shard_specs(self):
        # An unprobed fleet's shard params must not mention probing at
        # all — the knob rides in only when requested, so pre-existing
        # cache entries stay valid.
        from repro.netsim.fleet.engine import shard_specs

        plain, _ = shard_specs(FleetSpec(units=40, edges=4))
        assert all("probe_interval_s" not in s.params for s in plain)
        probed, _ = shard_specs(FleetSpec(units=40, edges=4, probe_interval_s=0.5))
        assert all(s.params["probe_interval_s"] == 0.5 for s in probed)

    def test_probed_and_unprobed_shards_key_apart(self):
        # A probed shard's cached result carries the probe log, so it
        # must not be interchangeable with an unprobed cache entry.
        from repro.netsim.fleet.engine import shard_specs

        plain, _ = shard_specs(FleetSpec(units=40, edges=4))
        probed, _ = shard_specs(FleetSpec(units=40, edges=4, probe_interval_s=0.5))
        assert content_key(plain[0]) != content_key(probed[0])

    def test_new_task_params_all_carry_defaults(self):
        # KEY002's contract for this PR: the tasks grew probe knobs, but
        # only as inert-at-default parameters, so every pre-existing
        # spec (and cache key) is untouched.
        import inspect

        packet_arm = get_task("netsim.packet_arm")
        fleet_shard_arm = get_task("fleet.shard_arm")

        assert inspect.signature(packet_arm).parameters["probe"].default is None
        assert (
            inspect.signature(fleet_shard_arm).parameters["probe_interval_s"].default
            == 0.0
        )

    def test_sweep_results_unchanged_by_probing(self):
        from repro.netsim.packet.simulation import FlowConfig
        from repro.netsim.packet.sweep import run_packet_sweep

        def factory(i):
            return FlowConfig(flow_id=i)

        kwargs = dict(
            n_units=2,
            treatment_factory=factory,
            control_factory=factory,
            allocations=(0, 2),
            capacity_mbps=10.0,
            duration_s=1.0,
            warmup_s=0.25,
        )
        plain = run_packet_sweep(**kwargs)
        probed = run_packet_sweep(**kwargs, probe=ProbeConfig(interval_s=0.25))
        assert plain.tte("throughput_mbps") == probed.tte("throughput_mbps")
