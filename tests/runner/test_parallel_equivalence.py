"""Parallel execution must be bit-identical to the serial path.

Every sweep derives its randomness from per-arm seeds, so fanning arms
out over worker processes cannot change any result.  These tests assert
exact equality (not approximate) between ``jobs=1`` and ``jobs>1`` for
the packet sweep and the paired-link experiment.
"""

import numpy as np
import pytest

from repro.experiments.paired_link import PairedLinkExperiment
from repro.netsim.packet.network import PathConfig, QueueConfig
from repro.netsim.packet.simulation import FlowConfig
from repro.netsim.packet.sweep import run_packet_sweep
from repro.runner import ParallelExecutor
from repro.workload.netflix import WorkloadConfig

PACKET_KWARGS = dict(
    allocations=(0, 2, 4),
    capacity_mbps=20.0,
    duration_s=6.0,
    warmup_s=2.0,
)


def _packet_sweep(jobs):
    return run_packet_sweep(
        4,
        treatment_factory=lambda i: FlowConfig(i, cc="reno", connections=2),
        control_factory=lambda i: FlowConfig(i, cc="reno", connections=1),
        executor=ParallelExecutor(jobs=jobs),
        **PACKET_KWARGS,
    )


class TestPacketSweepParallel:
    def test_jobs4_equals_serial(self):
        serial = _packet_sweep(jobs=1)
        parallel = _packet_sweep(jobs=4)
        assert sorted(serial.results) == sorted(parallel.results)
        for k in serial.results:
            assert serial.results[k] == parallel.results[k]

    def test_curves_identical(self):
        serial = _packet_sweep(jobs=1)
        parallel = _packet_sweep(jobs=4)
        for metric in ("throughput_mbps", "retransmit_fraction"):
            assert serial.tte(metric) == parallel.tte(metric)


class TestTopologySweepParallel:
    """jobs=1 vs jobs=4 must stay byte-identical for every new topology knob."""

    def _topology_sweep(self, jobs):
        # Exercises all three new axes at once: AQM discipline, per-unit
        # RTT spread and a random-loss segment (seeded).
        lossy = PathConfig(loss_rate=0.005)
        return run_packet_sweep(
            4,
            treatment_factory=lambda i: FlowConfig(i, cc="reno", connections=2, path=lossy),
            control_factory=lambda i: FlowConfig(i, cc="reno", connections=1, path=lossy),
            queue_discipline="codel",
            rtt_ms=(10.0, 30.0),
            seed=5,
            executor=ParallelExecutor(jobs=jobs),
            **PACKET_KWARGS,
        )

    def test_jobs4_equals_serial(self):
        serial = self._topology_sweep(jobs=1)
        parallel = self._topology_sweep(jobs=4)
        assert sorted(serial.results) == sorted(parallel.results)
        for k in serial.results:
            assert serial.results[k] == parallel.results[k]

    def test_red_sweep_jobs4_equals_serial(self):
        red = QueueConfig(name="red", capacity_mbps=20.0, discipline="red", params={"weight": 0.05})
        path = PathConfig(queues=("red",))

        def sweep(jobs):
            return run_packet_sweep(
                4,
                treatment_factory=lambda i: FlowConfig(i, connections=2, path=path),
                control_factory=lambda i: FlowConfig(i, path=path),
                extra_queues=(red,),
                seed=11,
                executor=ParallelExecutor(jobs=jobs),
                **PACKET_KWARGS,
            )

        serial, parallel = sweep(1), sweep(4)
        for k in serial.results:
            assert serial.results[k] == parallel.results[k]

    def test_topology_figure_cells_jobs4_equals_serial(self):
        from repro.runner import ScenarioSpec

        specs = [
            ScenarioSpec(
                task="figure.cells",
                params={"figure": figure, "quick": True},
                seed=0,
            )
            for figure in ("topo_rtt", "topo_aqm")
        ]
        serial = ParallelExecutor(jobs=1).map(specs)
        parallel = ParallelExecutor(jobs=4).map(specs)
        assert serial == parallel


class TestChurnSweepParallel:
    """Dynamic traffic draws all randomness from the spec seed, so
    worker fan-out cannot perturb churn results either."""

    def _churn_sweep(self, jobs):
        from repro.netsim.traffic.arrivals import PoissonArrivals
        from repro.netsim.traffic.sizes import ParetoSizes
        from repro.netsim.traffic.source import TrafficSource

        source = TrafficSource(
            arrivals=PoissonArrivals(4.0),
            sizes=ParetoSizes(40_000.0, 1.5),
            label="churn",
        )
        return run_packet_sweep(
            4,
            treatment_factory=lambda i: FlowConfig(i, cc="reno", connections=2),
            control_factory=lambda i: FlowConfig(i, cc="reno", connections=1),
            traffic_sources=(source,),
            seed=13,
            executor=ParallelExecutor(jobs=jobs),
            **PACKET_KWARGS,
        )

    def test_jobs4_equals_serial(self):
        serial = self._churn_sweep(jobs=1)
        parallel = self._churn_sweep(jobs=4)
        assert sorted(serial.results) == sorted(parallel.results)
        for k in serial.results:
            assert serial.results[k] == parallel.results[k]
            assert serial.results[k].traffic == parallel.results[k].traffic


class TestPairedLinkParallel:
    @pytest.fixture(scope="class")
    def outcomes(self):
        config = WorkloadConfig(sessions_at_peak=100, n_accounts=1500, seed=5)
        serial = PairedLinkExperiment(config=config).run()
        parallel = PairedLinkExperiment(config=config).run(ParallelExecutor(jobs=3))
        return serial, parallel

    def test_tables_identical(self, outcomes):
        serial, parallel = outcomes
        for name in ("baseline_table", "experiment_table", "aa_table"):
            a, b = getattr(serial, name), getattr(parallel, name)
            assert a.column_names == b.column_names
            for column in a.column_names:
                assert np.array_equal(a[column], b[column])

    def test_estimates_identical(self, outcomes):
        serial, parallel = outcomes
        for estimand, per_metric in serial.estimates.items():
            for metric, estimate in per_metric.items():
                assert (
                    estimate.relative_percent
                    == parallel.estimates[estimand][metric].relative_percent
                )
