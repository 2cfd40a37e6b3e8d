"""Structured run tracing: spans, Chrome trace events, live progress.

This module is the *only* place in the codebase allowed to read a wall
clock (:func:`walltime`, with an explicit ``repro lint`` suppression).
Wall time never flows into simulation results or content keys — it only
annotates *how long the computation took*, in three artifacts written to
a run directory:

``trace.jsonl``
    One JSON object per line, written incrementally as events happen:
    ``{"event": "task", ...}`` spans and ``{"event": "cache", ...}``
    hit/miss markers.  Greppable, tail-able, crash-safe.
``trace.json``
    The same spans in Chrome trace-event format — open in Perfetto or
    ``chrome://tracing`` to see worker lanes and task durations.
``meta.json`` / ``profile.json``
    Run metadata (command, totals, engine counters) and merged cProfile
    hotspot rows when ``--profile`` was on.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from repro.obs.profile import ProfileRow, merge_profile_rows, run_profiled

__all__ = [
    "walltime",
    "TaskRun",
    "observe_spec",
    "RunTracer",
    "ProgressPrinter",
    "add_trace_arguments",
]


def walltime() -> float:
    """Seconds since the epoch, for span timing only.

    The single sanctioned wall-clock read: simulation code must never
    call this (DET002 bans direct clock reads there), and its value must
    never enter a simulation result or content key.
    """
    return time.time()  # repro-lint: disable=DET002


@dataclass(frozen=True)
class TaskRun:
    """One executed runner task, as observed by the tracer.

    Picklable and flat on purpose: workers build these in child
    processes and ship them back to the parent for folding.

    Attributes
    ----------
    task:
        Task name from the spec (``"netsim.packet_arm"``,
        ``"fleet.shard_arm"``, ...).
    label:
        Human label from the spec, or the task name when unset.
    started:
        Wall time the task started (epoch seconds).
    wall_s:
        Wall duration of the task body.
    pid:
        Process id of the worker that ran it.
    profile_rows:
        cProfile hotspot rows when profiling was on, else empty.
    result:
        The task's return value.
    """

    task: str
    label: str
    started: float
    wall_s: float
    pid: int
    profile_rows: tuple[ProfileRow, ...] = ()
    result: Any = None


def observe_spec(spec: Any, task: Callable[..., Any], profile: bool = False) -> TaskRun:
    """Execute one runner spec and wrap the outcome in a :class:`TaskRun`.

    ``task`` is the spec's task function, resolved by the caller (the
    executor does so in the parent, so worker processes receive the
    function itself rather than a name to look up).  Module-level so
    ``ProcessPoolExecutor`` can pickle it.
    """
    run = functools.partial(task, seed=spec.seed, **dict(spec.params))
    started = walltime()
    if profile:
        result, rows = run_profiled(run)
    else:
        result, rows = run(), ()
    return TaskRun(
        task=spec.task,
        label=spec.label or spec.task,
        started=started,
        wall_s=walltime() - started,
        pid=os.getpid(),
        profile_rows=tuple(rows),
        result=result,
    )


class RunTracer:
    """Collects task spans and cache events; writes the run directory.

    Usage::

        tracer = RunTracer(rundir, command="repro sweep ...")
        ...  # executor calls tracer.task(run) / tracer.cache_event(...)
        tracer.add_counters({"events_processed": ...})
        tracer.finish({"figure": "fleet"})
    """

    def __init__(self, directory: str | Path, command: str = ""):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.started = walltime()
        self.tasks: list[TaskRun] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.counters: dict[str, float] = {}
        self._jsonl: IO[str] = (self.directory / "trace.jsonl").open("w", encoding="utf-8")
        self._emit({"event": "run_start", "command": command, "started": self.started})

    def _emit(self, payload: Mapping[str, Any]) -> None:
        self._jsonl.write(json.dumps(payload, sort_keys=True) + "\n")
        self._jsonl.flush()

    def cache_event(self, hit: bool, label: str) -> None:
        """Record one cache lookup outcome."""
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        self._emit({"event": "cache", "hit": hit, "label": label, "t": walltime() - self.started})

    def task(self, run: TaskRun) -> None:
        """Fold one completed task span in."""
        self.tasks.append(run)
        self._emit(
            {
                "event": "task",
                "task": run.task,
                "label": run.label,
                "pid": run.pid,
                "started": run.started - self.started,
                "wall_s": run.wall_s,
            }
        )

    def add_counters(self, counters: Mapping[str, float]) -> None:
        """Fold engine/run counters in by summation."""
        for name in sorted(counters):
            self.counters[name] = self.counters.get(name, 0.0) + float(counters[name])

    def chrome_events(self) -> list[dict[str, Any]]:
        """The spans as Chrome trace-event dicts (one lane per worker pid)."""
        events: list[dict[str, Any]] = []
        for run in self.tasks:
            events.append(
                {
                    "name": run.label,
                    "cat": run.task,
                    "ph": "X",
                    "ts": max(0.0, (run.started - self.started) * 1e6),
                    "dur": run.wall_s * 1e6,
                    "pid": run.pid,
                    "tid": 1,
                    "args": {"task": run.task},
                }
            )
        return events

    def finish(self, meta: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Write trace.json / profile.json / meta.json; return the meta dict."""
        wall_s = walltime() - self.started
        self._emit({"event": "run_end", "wall_s": wall_s, "tasks": len(self.tasks)})
        self._jsonl.close()

        trace = {"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}
        (self.directory / "trace.json").write_text(json.dumps(trace, indent=1), encoding="utf-8")

        profiled = [run.profile_rows for run in self.tasks if run.profile_rows]
        if profiled:
            rows = merge_profile_rows(profiled)
            payload = {"schema": 1, "tasks_profiled": len(profiled), "rows": rows}
            (self.directory / "profile.json").write_text(
                json.dumps(payload, indent=1), encoding="utf-8"
            )

        summary: dict[str, Any] = {
            "schema": 1,
            "command": self.command,
            "wall_s": wall_s,
            "tasks": len(self.tasks),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "workers": sorted({run.pid for run in self.tasks}),
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
        }
        if meta:
            summary.update(meta)
        (self.directory / "meta.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
        return summary


@dataclass
class ProgressPrinter:
    """Single-line live progress for fleet/sweep runs (stderr by default).

    Callable with ``(done, total, run)`` — the executor's
    ``on_task_done`` signature.  Tracks its own start time per batch
    (reset whenever ``done`` goes backwards, i.e. a new ``map`` call)
    and prints ``done/total`` with a units-per-second rate.
    """

    label: str = "tasks"
    stream: IO[str] = field(default_factory=lambda: sys.stderr)
    _t0: float = field(default=0.0, repr=False)
    _last_done: int = field(default=-1, repr=False)

    def __call__(self, done: int, total: int, run: TaskRun | None = None) -> None:
        if done <= self._last_done or self._t0 == 0.0:
            self._t0 = walltime() - (run.wall_s if run is not None else 0.0)
        self._last_done = done
        elapsed = max(walltime() - self._t0, 1e-9)
        rate = done / elapsed
        end = "\n" if done >= total else "\r"
        self.stream.write(f"  {self.label}: {done}/{total} ({rate:.1f}/s){end}")
        self.stream.flush()


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the run-tracing flags, ``--trace DIR`` and ``--profile``."""
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help=(
            "write run tracing (task spans, cache events; JSONL + Chrome "
            "trace-event JSON) to this directory; render it afterwards "
            "with 'repro report DIR'"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="wrap each runner task in cProfile (requires --trace)",
    )
