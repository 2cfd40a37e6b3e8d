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

Specs go to the workers in chunks, by guided self-scheduling
(Polychronopoulos & Kuck, 1987).  The first chunks hold one spec each,
one per worker, so a caller's leading long specs each start a worker;
every later chunk holds ``ceil(remaining / (2 * workers))`` of the specs
not yet in a chunk.  A spec that costs about one pool round trip, such
as a fluid lab arm, then no longer pays a round trip of its own.  The
pool holds at most one chunk more than there are workers, so a worker
that finishes starts its next chunk at once, and the rest wait in this
process.  A map that exits early (a task error, an ``on_task_done`` or
cache put that raises, Ctrl-C) submits no more chunks and cancels those
no worker has started, so it returns once the chunks in flight finish.

Observability (all off by default): a :class:`~repro.obs.trace.RunTracer`
receives task spans and cache hit/miss events, ``profile=True`` wraps
each task body in cProfile, and ``on_task_done`` delivers live progress
callbacks — ``(done, total, run)`` — as tasks complete.  Each spec of a
chunk keeps its own span, cache put and callback, in spec order.  None
of these change what is executed or cached, only what is observed about
it.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import closing
from typing import Any

from repro.obs.trace import RunTracer, TaskRun, observe_spec
from repro.runner.cache import ResultCache
from repro.runner.spec import ScenarioSpec, content_key, get_task

__all__ = ["ParallelExecutor"]


def _guided_chunks(n: int, workers: int) -> list[slice]:
    """Split ``n`` specs into guided self-scheduling chunks, in order.

    The first ``min(workers, n)`` chunks hold one spec each; every later
    chunk holds ``ceil(remaining / (2 * workers))`` of the specs not yet
    in a chunk, so those chunks never grow.
    """
    chunks: list[slice] = []
    start = 0
    while start < n:
        size = 1 if start < workers else -(-(n - start) // (2 * workers))
        chunks.append(slice(start, start + size))
        start += size
    return chunks


def _observe_chunk(
    calls: Sequence[tuple[ScenarioSpec, Callable[..., Any]]], profile: bool
) -> list[TaskRun]:
    """Run one chunk of ``(spec, task)`` calls in a worker; one run per spec, in order."""
    return [observe_spec(spec, task, profile) for spec, task in calls]


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

        # ``closing`` shuts the pool down as soon as this loop raises.
        with closing(self._execute(specs, pending)) as runs:
            for done, (i, run) in enumerate(runs, start=1):
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
        """Run ``specs[i]`` for each pending ``i``; yield ``(i, run)`` as each chunk completes."""
        calls = [(specs[i], get_task(specs[i].task)) for i in pending]
        if self.jobs == 1 or len(calls) <= 1:
            for i, (spec, task) in zip(pending, calls):
                yield i, observe_spec(spec, task, self.profile)
            return
        workers = min(self.jobs, len(calls))
        chunks = deque(_guided_chunks(len(calls), workers))
        running: dict[Future[list[TaskRun]], slice] = {}
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while chunks or running:
                # One chunk waits in the pool behind the busy workers, so a
                # worker that finishes starts its next chunk at once.
                while chunks and len(running) <= workers:
                    chunk = chunks.popleft()
                    running[pool.submit(_observe_chunk, calls[chunk], self.profile)] = chunk
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    yield from zip(pending[running.pop(future)], future.result())
        finally:
            pool.shutdown(cancel_futures=True)
