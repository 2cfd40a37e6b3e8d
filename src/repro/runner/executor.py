"""Process-parallel execution of scenario specs.

:class:`ParallelExecutor` is deliberately small: resolve cache hits,
fan the misses out over a process pool (or run them inline for
``jobs=1``), store fresh results back into the cache, and return results
in spec order.  Because every spec carries its own seed, the results are
bit-identical regardless of ``jobs``.

Each spec's task is looked up in this process and sent to the worker as
the function itself.  Functions pickle by reference, so unpickling one
imports its module in the worker: every task is found under every
process start method, ``spawn`` included, although each registers in
its own module and the runner imports none of them.

Observability (all off by default): a :class:`~repro.obs.trace.RunTracer`
receives task spans and cache hit/miss events, ``profile=True`` wraps
each task body in cProfile, and ``on_task_done`` delivers live progress
callbacks — ``(done, total, run)`` — as tasks complete.  None of these
change what is executed or cached, only what is observed about it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any

from repro.obs.trace import RunTracer, TaskRun, observe_spec
from repro.runner.cache import ResultCache
from repro.runner.spec import ScenarioSpec, content_key, get_task

__all__ = ["ParallelExecutor"]


class ParallelExecutor:
    """Runs scenario specs serially or across worker processes.

    Parameters
    ----------
    jobs:
        Number of worker processes.  ``1`` (the default) runs every spec
        in the current process with no pool overhead; ``None`` or any
        value below 1 means "one per CPU".
    cache:
        Optional :class:`ResultCache`.  Hits skip execution entirely;
        fresh results are stored as their tasks complete.
    tracer:
        Optional :class:`~repro.obs.trace.RunTracer`: receives a span per
        executed task and a cache event per lookup.
    profile:
        Wrap each executed task in cProfile; the hotspot rows travel back
        on the task spans (requires a ``tracer`` to go anywhere).
    on_task_done:
        Optional live-progress callback, invoked in the parent process as
        ``on_task_done(done, total, run)`` after each task completes.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache: ResultCache | None = None,
        tracer: RunTracer | None = None,
        profile: bool = False,
        on_task_done: Callable[[int, int, TaskRun], None] | None = None,
    ):
        if jobs is None or jobs < 1:
            jobs = os.cpu_count() or 1
        self.jobs = int(jobs)
        self.cache = cache
        self.tracer = tracer
        self.profile = profile
        self.on_task_done = on_task_done

    def run(self, spec: ScenarioSpec) -> Any:
        """Execute a single spec (through the cache if one is set)."""
        return self.map([spec])[0]

    def map(self, specs: Iterable[ScenarioSpec]) -> list[Any]:
        """Execute specs and return their results in input order."""
        specs = list(specs)
        results: list[Any] = [None] * len(specs)
        keys: dict[int, str] = {}
        pending: list[int] = []

        if self.cache is None:
            pending = list(range(len(specs)))
        else:
            for i, spec in enumerate(specs):
                key = content_key(spec)
                keys[i] = key
                hit, value = self.cache.get(key)
                if self.tracer is not None:
                    self.tracer.cache_event(hit, spec.label or spec.task)
                if hit:
                    results[i] = value
                else:
                    pending.append(i)

        for done, (i, run) in enumerate(self._execute(specs, pending), start=1):
            results[i] = run.result
            if self.cache is not None:
                self.cache.put(keys[i], run.result)
            if self.tracer is not None:
                self.tracer.task(run)
            if self.on_task_done is not None:
                self.on_task_done(done, len(pending), run)
        return results

    def _execute(
        self, specs: Sequence[ScenarioSpec], pending: Sequence[int]
    ) -> Iterator[tuple[int, TaskRun]]:
        """Run ``specs[i]`` for each pending ``i``; yield ``(i, run)`` as each completes."""
        calls = [(i, get_task(specs[i].task)) for i in pending]
        if self.jobs == 1 or len(calls) <= 1:
            for i, task in calls:
                yield i, observe_spec(specs[i], task, self.profile)
            return
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(calls))) as pool:
            futures = {
                pool.submit(observe_spec, specs[i], task, self.profile): i for i, task in calls
            }
            for future in as_completed(futures):
                yield futures[future], future.result()
