"""Tests for the parallel executor."""

import os

import pytest

from repro.runner import ParallelExecutor, ResultCache, ScenarioSpec, register_task

_EXECUTIONS = []


@register_task("test.record")
def _record(value, seed=None):
    _EXECUTIONS.append(value)
    return value


@register_task("test.fail")
def _fail(seed=None):
    raise RuntimeError("task exploded")


def _echo_specs(n):
    return [
        ScenarioSpec(task="debug.echo", params={"index": i}, seed=i) for i in range(n)
    ]


class TestParallelExecutor:
    def test_serial_map_preserves_order(self):
        results = ParallelExecutor(jobs=1).map(_echo_specs(5))
        assert [r["index"] for r in results] == list(range(5))
        assert [r["seed"] for r in results] == list(range(5))

    def test_parallel_map_preserves_order(self):
        results = ParallelExecutor(jobs=2).map(_echo_specs(6))
        assert [r["index"] for r in results] == list(range(6))

    def test_parallel_equals_serial(self):
        specs = _echo_specs(4)
        assert ParallelExecutor(jobs=1).map(specs) == ParallelExecutor(jobs=4).map(specs)

    def test_jobs_below_one_means_cpu_count(self):
        assert ParallelExecutor(jobs=0).jobs == (os.cpu_count() or 1)
        assert ParallelExecutor(jobs=None).jobs == (os.cpu_count() or 1)

    def test_run_single_spec(self):
        result = ParallelExecutor(jobs=1).run(
            ScenarioSpec(task="debug.echo", params={"x": 9})
        )
        assert result["x"] == 9

    def test_empty_map(self):
        assert ParallelExecutor(jobs=2).map([]) == []

    def test_task_error_propagates(self):
        with pytest.raises(RuntimeError, match="task exploded"):
            ParallelExecutor(jobs=1).map([ScenarioSpec(task="test.fail")])


class TestExecutorCaching:
    def test_cache_skips_execution_on_second_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ScenarioSpec(task="test.record", params={"value": 42})
        _EXECUTIONS.clear()

        first = ParallelExecutor(jobs=1, cache=cache).map([spec])
        assert first == [42]
        assert _EXECUTIONS == [42]

        second = ParallelExecutor(jobs=1, cache=cache).map([spec])
        assert second == [42]
        assert _EXECUTIONS == [42]  # not executed again
        assert cache.hits == 1

    def test_cache_distinguishes_parameters(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(jobs=1, cache=cache)
        _EXECUTIONS.clear()
        executor.map([ScenarioSpec(task="test.record", params={"value": 1})])
        executor.map([ScenarioSpec(task="test.record", params={"value": 2})])
        assert _EXECUTIONS == [1, 2]

    def test_mixed_hits_and_misses_keep_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = _echo_specs(4)
        ParallelExecutor(jobs=1, cache=cache).map(specs[:2])
        results = ParallelExecutor(jobs=1, cache=cache).map(specs)
        assert [r["index"] for r in results] == list(range(4))


class TestSpawnWorkers:
    def test_figure_cells_arm_runs_in_spawned_workers(self, monkeypatch):
        # A spawned worker starts from a fresh interpreter with no task
        # registered above the runner; it finds figure.cells only because
        # the executor sends the task function, whose unpickling imports
        # repro.experiments.figures there.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        from repro import api
        from repro.runner import executor as executor_module

        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=spawn)
        )
        specs = [
            api.figure_spec("fig2a", noise=0.05, seed=3),
            ScenarioSpec(task="debug.echo", params={"x": 1}),
        ]
        spawned = ParallelExecutor(jobs=2).map(specs)
        assert spawned == ParallelExecutor(jobs=1).map(specs)
        assert "tte_throughput_mbps" in spawned[0]

    def test_substrate_tasks_run_in_spawned_workers(self, monkeypatch):
        # Each substrate task registers on the function it runs, in a
        # module no runner module imports; a spawned worker finds it only
        # by unpickling the function the executor sends.
        import multiprocessing
        import pickle
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        import repro.experiments.paired_link  # noqa: F401  (workload tables)
        from repro.netsim.fleet import FleetSpec, shard_specs
        from repro.netsim.packet.simulation import FlowConfig
        from repro.runner import executor as executor_module
        from repro.workload.netflix import WorkloadConfig

        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=spawn)
        )
        fleet_specs, _ = shard_specs(
            FleetSpec(units=6, edges=1, regions=1, duration_s=1.0, warmup_s=0.25)
        )
        specs = [
            ScenarioSpec(
                task="netsim.packet_arm",
                params={
                    "flows": (FlowConfig(0), FlowConfig(1, connections=2)),
                    "capacity_mbps": 10.0,
                    "duration_s": 1.0,
                    "warmup_s": 0.25,
                },
            ),
            fleet_specs[0],
            ScenarioSpec(
                task="workload.aa_table",
                params={
                    "config": WorkloadConfig(sessions_at_peak=20, n_accounts=100),
                    "days": (0,),
                },
            ),
            ScenarioSpec(task="debug.echo", params={"x": 1}),
        ]
        assert [s.task for s in specs] == [
            "netsim.packet_arm",
            "fleet.shard_arm",
            "workload.aa_table",
            "debug.echo",
        ]
        spawned = ParallelExecutor(jobs=2).map(specs)
        serial = ParallelExecutor(jobs=1).map(specs)
        assert [pickle.dumps(r) for r in spawned] == [pickle.dumps(r) for r in serial]
