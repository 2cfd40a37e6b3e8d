"""Wall-time of packet-level sweeps: serial vs the parallel runner.

The packet sweep is the repository's slowest path; its arms are
independent, so the parallel runner should cut wall-time roughly by the
number of workers (bounded by the slowest arm).  Recording both timings
here keeps the speedup visible in the perf trajectory, and the equality
assertion guards the runner's bit-identical contract on a workload-sized
sweep.

On a single-core machine the parallel timing degenerates to serial plus
a few percent of pool overhead — the comparison is informative, not
asserted, so the benchmark stays green everywhere.
"""

from _helpers import run_once

from repro.netsim.packet.simulation import FlowConfig
from repro.netsim.packet.sweep import run_packet_sweep
from repro.runner.executor import ParallelExecutor

#: Sweep sized so each arm is heavy enough to dwarf pool start-up.
SWEEP_KWARGS = dict(
    allocations=(0, 1, 2, 3, 4),
    capacity_mbps=60.0,
    duration_s=15.0,
    warmup_s=5.0,
)

_RESULTS = {}


def _sweep(jobs):
    return run_packet_sweep(
        4,
        treatment_factory=lambda i: FlowConfig(i, cc="reno", connections=2),
        control_factory=lambda i: FlowConfig(i, cc="reno", connections=1),
        executor=ParallelExecutor(jobs=jobs),
        **SWEEP_KWARGS,
    )


def test_packet_sweep_serial(benchmark):
    sweep = run_once(benchmark, _sweep, jobs=1)
    assert sorted(sweep.results) == [0, 1, 2, 3, 4]
    _RESULTS["serial"] = sweep


def test_packet_sweep_parallel_jobs4(benchmark):
    sweep = run_once(benchmark, _sweep, jobs=4)
    assert sorted(sweep.results) == [0, 1, 2, 3, 4]
    serial = _RESULTS.get("serial")
    if serial is not None:
        for k in serial.results:
            assert serial.results[k] == sweep.results[k]
