"""Process-parallel scenario runner with deterministic result caching.

Every sweep and replication in the repository that pays for dispatch —
packet-level allocation sweeps, fleet shards, paired-link workload weeks,
design emulations, multi-seed figure replications — is a flat list of
independent simulation arms.  This package gives those arms a common
shape and a common execution engine:

:class:`~repro.runner.spec.ScenarioSpec`
    A declarative, picklable description of one arm: a registered task
    name, its parameters, and the seed that makes it deterministic.

:class:`~repro.runner.executor.ParallelExecutor`
    Fans a list of specs out over a ``ProcessPoolExecutor``, in chunks
    that shrink as the list drains.  Because all randomness is derived
    from the per-spec seed, parallel results are bit-identical to serial
    ones.

:class:`~repro.runner.cache.ResultCache`
    A content-keyed on-disk cache: a spec's key hashes its task name,
    parameters, seed and the package version, so re-running a figure with
    unchanged parameters is instant while any parameter change misses.

The runner imports nothing from the layers above it.  Each task
registers on the function it runs, in the module that defines it: the
packet and fleet arms in :mod:`repro.netsim`, the paired-link workload
tables, the design emulations and ``figure.cells`` in
:mod:`repro.experiments`.  A fluid lab arm is a closed-form allocation
that costs less than its dispatch, so the fluid sweeps run their arms
in-process and register no task.
"""

from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.executor import ParallelExecutor
from repro.runner.spec import (
    ScenarioSpec,
    canonical,
    content_key,
    get_task,
    register_task,
    run_spec,
)

__all__ = [
    "ScenarioSpec",
    "ParallelExecutor",
    "ResultCache",
    "canonical",
    "content_key",
    "default_cache_dir",
    "get_task",
    "register_task",
    "run_spec",
]
