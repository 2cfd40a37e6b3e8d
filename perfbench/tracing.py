"""Call spans taken from outside the program.

:class:`Tracer` replaces public functions and methods of the ``repro``
layers with thin wrappers that count calls and time them.  Each wrapper
keeps, per span name, the call count, the inclusive time and the *self*
time (the span minus the spans of wrapped calls made inside it), all in
memory; :meth:`Tracer.export` hands them out when the benchmark ends.

Wrappers are installed only for a traced pass and removed afterwards, so
no timed end-to-end pass ever runs under them.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import statistics
import sys
import time
from collections.abc import Callable
from typing import Any

__all__ = [
    "QUEUE_DISCIPLINES_TRACED",
    "NetworkObserver",
    "TaskLog",
    "Tracer",
    "install_call_spans",
    "install_parent_spans",
]

#: Queue disciplines the packet lab exercises, by registry name.
QUEUE_DISCIPLINES_TRACED: tuple[str, ...] = ("droptail", "codel", "fq_codel", "dualpi2")

_MISSING = object()


class Tracer:
    """Aggregated call spans with self time, kept in memory.

    ``stats[name]`` is ``[calls, inclusive_ns, self_ns]``; names listed
    with ``samples=True`` also keep every duration (for percentiles).
    ``covered_ns`` is the time spent inside any top-level span; set
    against a pass's wall time it gives the share no span covers.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.samples: dict[str, list[int]] = {}
        self._stack: list[int] = [0]
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any], samples: bool = False) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span called ``name``."""
        stat = self.stats.setdefault(name, [0, 0, 0])
        kept = self.samples.setdefault(name, []) if samples else None
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                stack[-1] += elapsed
                if kept is not None:
                    kept.append(elapsed)

        return traced

    def patch_method(self, cls: type, attr: str, name: str, samples: bool = False) -> None:
        """Wrap ``cls.attr`` (own or inherited) until :meth:`uninstall`."""
        own = cls.__dict__.get(attr, _MISSING)
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), samples))
        self._patches.append((cls, attr, own, None))

    def patch_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module-level function and every ``repro`` binding of it."""
        original = getattr(importlib.import_module(module_name), attr)
        traced = self.wrap(name, original)
        for module in _repro_modules():
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)
        self._patches.append((None, attr, original, traced))

    def uninstall(self) -> None:
        """Remove every wrapper this tracer installed (newest first)."""
        while self._patches:
            cls, attr, original, traced = self._patches.pop()
            if cls is not None:
                if original is _MISSING:
                    delattr(cls, attr)
                else:
                    setattr(cls, attr, original)
                continue
            # Modules imported while the wrapper was live may hold it too.
            for module in _repro_modules():
                if getattr(module, attr, None) is traced:
                    setattr(module, attr, original)

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        """Calls made to span ``name``."""
        return self.stats.get(name, [0, 0, 0])[0]

    def self_ns(self, name: str) -> int:
        """Total self time of span ``name``, in nanoseconds."""
        return self.stats.get(name, [0, 0, 0])[2]

    def mean_self(self, name: str, scale: float) -> float:
        """Mean self time per call of ``name`` in seconds × ``scale``."""
        calls = self.calls(name)
        return self.self_ns(name) / calls * 1e-9 * scale if calls else 0.0

    def median_sample(self, name: str, scale: float) -> float:
        """Median inclusive duration of ``name`` in seconds × ``scale``."""
        kept = self.samples.get(name)
        return statistics.median(kept) * 1e-9 * scale if kept else 0.0

    @property
    def covered_ns(self) -> int:
        """Time spent inside top-level spans since the tracer was made."""
        return self._stack[0]

    def export(self) -> dict[str, dict[str, float]]:
        """Span aggregates by name, for the trace file."""
        return {
            name: {"calls": calls, "inclusive_s": total * 1e-9, "self_s": own * 1e-9}
            for name, (calls, total, own) in sorted(self.stats.items())
        }


def _repro_modules() -> list[Any]:
    """Every loaded ``repro`` module (where function bindings live)."""
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def install_parent_spans(tracer: Tracer, dispatch: bool = True) -> None:
    """Spans around calls the benchmark's own process makes.

    Safe at any ``jobs``: workers never make these calls, so the spans
    cost nothing inside a worker.  ``dispatch`` adds the span around
    ``ParallelExecutor.map``, which envelops whole batches; leave it out
    where spans must attribute time to the layers doing the work.
    """
    from repro.campaign.spec import CampaignSpec
    from repro.core.analysis.sketch import QuantileSketch
    from repro.netsim.fleet.aggregate import ShardStats
    from repro.runner.cache import ResultCache
    from repro.runner.executor import ParallelExecutor

    if dispatch:
        tracer.patch_method(ParallelExecutor, "map", "runner.map")
    tracer.patch_function("repro.runner.spec", "content_key", "runner.content_key")
    tracer.patch_method(ResultCache, "get", "cache.get", samples=True)
    tracer.patch_method(ResultCache, "put", "cache.put", samples=True)
    tracer.patch_function("repro.netsim.fleet.engine", "shard_specs", "fleet.shard_specs")
    tracer.patch_method(ShardStats, "merge", "fleet.merge")
    tracer.patch_method(QuantileSketch, "merge", "sketch.merge")
    tracer.patch_function("repro.campaign.loader", "load_campaign", "campaign.load")
    tracer.patch_method(CampaignSpec, "arms", "campaign.compile")
    tracer.patch_function("repro.campaign.run", "write_run_dir", "campaign.write_run_dir")
    tracer.patch_function("repro.campaign.validate", "validate_run", "campaign.validate")


def install_call_spans(tracer: Tracer) -> None:
    """Spans inside the simulation layers, for an in-process (jobs=1) pass."""
    from repro.experiments.paired_link import PairedLinkExperiment
    from repro.netsim.packet.engine import CalendarScheduler, EventScheduler
    from repro.netsim.packet.network import Network
    from repro.netsim.packet.packets import PacketPool
    from repro.netsim.packet.queue import QUEUE_DISCIPLINES
    from repro.netsim.packet.tcp.base import TcpSender

    for scheduler in (EventScheduler, CalendarScheduler):
        tracer.patch_method(scheduler, "schedule", "engine.schedule")
        tracer.patch_method(scheduler, "run", "engine.run")
    tracer.patch_method(TcpSender, "handle_ack", "tcp.handle_ack")
    tracer.patch_method(TcpSender, "handle_loss", "tcp.handle_loss")
    for discipline in QUEUE_DISCIPLINES_TRACED:
        tracer.patch_method(
            QUEUE_DISCIPLINES[discipline], "enqueue", f"queue.{discipline}.enqueue"
        )
    tracer.patch_method(PacketPool, "acquire", "pool.acquire")
    tracer.patch_method(Network, "__init__", "network.init")
    tracer.patch_method(Network, "add_flow", "network.add_flow")
    tracer.patch_method(Network, "run", "network.run")
    tracer.patch_function(
        "repro.netsim.fluid.competition", "allocate_throughput", "fluid.allocate"
    )
    tracer.patch_function(
        "repro.core.analysis.pipeline", "analyze_metric", "analysis.analyze_metric"
    )
    tracer.patch_method(PairedLinkExperiment, "run", "workload.paired_run")


class TaskLog:
    """``on_task_done`` hook of :class:`repro.runner.ParallelExecutor`.

    Records each finished task's wall time and the pickled size of its
    result (what a worker ships back to the parent process).
    """

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.result_bytes: list[int] = []

    def __call__(self, done: int, total: int, run: Any) -> None:
        self.walls.append(run.wall_s)
        self.result_bytes.append(len(pickle.dumps(run.result, pickle.HIGHEST_PROTOCOL)))


class NetworkObserver:
    """Reads the public counters of every finished packet simulation.

    Wraps :meth:`repro.netsim.packet.network.Network.run` with a call that
    runs the original and then reads ``result`` and ``network.queues``.
    It times nothing, so it may stay installed during timed passes: per
    simulation it costs a few attribute reads.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.segments = 0
        self.lost = 0
        self.events = 0
        self.pool_acquired = 0
        self.pool_reused = 0
        #: Per discipline: [offered, dropped, marked].
        self.queues: dict[str, list[int]] = {d: [0, 0, 0] for d in QUEUE_DISCIPLINES_TRACED}
        #: ``(run index, queue name)`` of every queue whose counters do not
        #: conserve packets.
        self.violations: list[tuple[int, str]] = []
        self._original: Any = None

    def observe(self, args: tuple, result: Any) -> None:
        """Fold one ``Network.run`` call (``args[0]`` is the network)."""
        network = args[0]
        for name, queue in network.queues.items():
            offered = queue.packets_offered
            if offered != queue.packets_served + queue.packets_dropped + queue.occupancy_packets:
                self.violations.append((self.runs, name))
            counters = self.queues.setdefault(type(queue).name, [0, 0, 0])
            counters[0] += offered
            counters[1] += queue.packets_dropped
            counters[2] += queue.packets_marked
        self.segments += sum(flow.packets_sent for flow in result.flows)
        self.lost += sum(flow.packets_lost for flow in result.flows)
        engine = result.engine
        self.events += engine.events_processed
        self.pool_acquired += engine.pool_acquired
        self.pool_reused += engine.pool_reused
        self.runs += 1

    def install(self) -> None:
        from repro.netsim.packet.network import Network

        self._original = Network.__dict__["run"]
        original = self._original
        observe = self.observe

        @functools.wraps(original)
        def run(network: Any, *args: Any, **kwargs: Any) -> Any:
            result = original(network, *args, **kwargs)
            observe((network,), result)
            return result

        Network.run = run

    def uninstall(self) -> None:
        from repro.netsim.packet.network import Network

        Network.run = self._original

    def __enter__(self) -> NetworkObserver:
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()
