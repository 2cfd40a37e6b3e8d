"""Per-layer metrics of the traced run.

:data:`PER_LAYER` names every metric with its unit, which way is better
and the end-to-end metric it should move on which workload (written down
before measuring, as the attribution the trace is meant to check).
:func:`compute` derives the values from the traced passes of one
workload; a layer a workload does not exercise reads 0.

Span times are *self* times (a span minus the wrapped calls inside it),
averaged per call unless the name says otherwise.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from typing import Any

from perfbench.tracing import QUEUE_DISCIPLINES_TRACED, NetworkObserver, TaskLog, Tracer

__all__ = ["PER_LAYER", "compute", "tail_percentile"]

_E2E = "work_per_s"

#: (name, unit, better, what it should move).
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("engine.events_per_segment", "events/seg", "lower",
     f"{_E2E} @ packet_lab (unbatched), @ fleet_quick (batched)"),
    ("engine.schedule_calls", "count", "lower", f"{_E2E} @ packet_lab, fleet_quick"),
    ("engine.loop_self_us_per_event", "us/event", "lower", f"{_E2E} @ packet_lab, fleet_quick"),
    ("tcp.handle_ack_calls", "count", "lower", f"{_E2E} @ packet_lab"),
    ("tcp.handle_ack_us", "us", "lower", f"{_E2E} @ packet_lab"),
    ("tcp.handle_loss_calls", "count", "lower", f"{_E2E} @ packet_lab"),
    ("tcp.handle_loss_us", "us", "lower", f"{_E2E} @ packet_lab"),
    ("tcp.retx_frac", "ratio", "lower", f"{_E2E} (units/s) @ fleet_quick"),
    *[
        row
        for d in QUEUE_DISCIPLINES_TRACED
        for row in (
            (f"queue.{d}.enqueue_calls", "count", "lower", f"{_E2E} @ packet_lab"),
            (f"queue.{d}.enqueue_us", "us", "lower", f"{_E2E} @ packet_lab"),
            (f"queue.{d}.drop_frac", "ratio", "lower", f"{_E2E} @ packet_lab"),
            (f"queue.{d}.mark_frac", "ratio", "lower", f"{_E2E} @ packet_lab"),
        )
    ],
    ("pool.reuse_frac", "ratio", "higher", f"{_E2E} @ packet_lab"),
    ("pool.acquire_us", "us", "lower", f"{_E2E} @ packet_lab"),
    ("network.build_us", "us", "lower", f"{_E2E} @ packet_lab"),
    ("network.run_self_s", "s", "lower", f"{_E2E} @ packet_lab"),
    ("fleet.shard_specs_s", "s", "lower", f"setup_s and {_E2E} @ fleet_quick"),
    ("fleet.unique_shard_frac", "ratio", "lower", f"setup_s and {_E2E} @ fleet_quick"),
    ("fleet.merges", "count", "lower", f"{_E2E} @ fleet_quick"),
    ("fleet.merge_us", "us", "lower", f"{_E2E} @ fleet_quick"),
    ("fleet.drop_frac", "ratio", "lower", f"{_E2E} @ fleet_quick"),
    ("sketch.merge_us", "us", "lower", f"{_E2E} @ fleet_quick"),
    ("runner.task_s_p50", "s", "lower", f"{_E2E} @ fleet_quick, campaign_cache"),
    ("runner.task_s_tail", "s", "lower", f"{_E2E} @ fleet_quick, campaign_cache"),
    ("runner.task_s_tail_pct", "%", "higher", "percentile of runner.task_s_tail"),
    ("runner.task_samples", "count", "higher", "sample count behind the runner.task_s_* figures"),
    ("runner.worker_busy_frac", "ratio", "higher", f"{_E2E} @ fleet_quick, campaign_cache"),
    ("runner.result_bytes_mean", "bytes", "lower", f"{_E2E} @ fleet_quick, campaign_cache"),
    ("runner.content_key_us", "us", "lower", f"{_E2E} @ campaign_cache, fleet_quick"),
    ("cache.put_us_p50", "us", "lower", f"{_E2E} @ campaign_cache (cold pass)"),
    ("cache.get_us_p50", "us", "lower", f"{_E2E} @ campaign_cache (warm pass)"),
    ("cache.hit_frac", "ratio", "higher", f"{_E2E} @ campaign_cache (warm pass)"),
    ("campaign.load_s", "s", "lower", "setup_s @ campaign_cache"),
    ("campaign.compile_s", "s", "lower", f"setup_s and {_E2E} @ campaign_cache"),
    ("campaign.write_run_dir_s", "s", "lower", f"{_E2E} @ campaign_cache"),
    ("campaign.validate_s", "s", "lower", f"{_E2E} @ campaign_cache"),
    ("fluid.allocate_calls", "count", "lower", f"{_E2E} @ campaign_cache"),
    ("fluid.allocate_us", "us", "lower", f"{_E2E} @ campaign_cache"),
    ("workload.paired_run_s", "s", "lower", f"{_E2E} @ campaign_cache"),
    ("analysis.analyze_metric_us", "us", "lower", f"{_E2E} @ campaign_cache"),
    ("import.repro_s", "s", "lower", "setup_s @ every workload"),
    ("trace.overhead_frac", "ratio", "lower", "none: cost of the tracing itself"),
    ("unattributed_frac", "ratio", "lower", "none: traced time no layer span covers"),
]

#: Tail percentiles tried, highest first.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with >= 10 samples above it.

    Falls back to the median when no listed percentile has that many.
    """
    ordered = sorted(values)
    if not ordered:
        return 50.0, 0.0
    n = len(ordered)

    def rank(pct: float) -> int:
        """Nearest rank, 1-based (rounded first so 90 % of 100 is 90)."""
        return max(math.ceil(round(pct * n / 100.0, 9)), 1)

    pct = next((p for p in _TAIL_LADDER if n - rank(p) >= 10), 50.0)
    return pct, ordered[rank(pct) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(
    *,
    call: Tracer,
    call_traced: Any,
    call_untraced: Any,
    parent: Tracer,
    runner: Any,
    tasks: TaskLog,
    runner_jobs: int,
    import_s: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for one workload's traced run.

    ``call`` spans and ``call_traced`` come from the in-process call
    pass, ``call_untraced`` from the same pass without spans; ``parent``
    spans, ``runner`` and ``tasks`` from set-up plus the pass at
    ``runner_jobs`` workers.
    """
    net: NetworkObserver = call_traced.network or NetworkObserver()
    events, segments = net.events, net.segments
    values: dict[str, float] = {
        "engine.events_per_segment": _ratio(events, segments),
        "engine.schedule_calls": call.calls("engine.schedule"),
        "engine.loop_self_us_per_event": _ratio(call.self_ns("engine.run") / 1e3, events),
        "tcp.handle_ack_calls": call.calls("tcp.handle_ack"),
        "tcp.handle_ack_us": call.mean_self("tcp.handle_ack", 1e6),
        "tcp.handle_loss_calls": call.calls("tcp.handle_loss"),
        "tcp.handle_loss_us": call.mean_self("tcp.handle_loss", 1e6),
        "tcp.retx_frac": _ratio(net.lost, segments),
        "pool.reuse_frac": _ratio(net.pool_reused, net.pool_acquired),
        "pool.acquire_us": call.mean_self("pool.acquire", 1e6),
        "network.build_us": _ratio(
            (call.self_ns("network.init") + call.self_ns("network.add_flow")) / 1e3,
            call.calls("network.init"),
        ),
        "network.run_self_s": call.mean_self("network.run", 1.0),
    }
    for d in QUEUE_DISCIPLINES_TRACED:
        offered, dropped, marked = net.queues[d]
        values[f"queue.{d}.enqueue_calls"] = call.calls(f"queue.{d}.enqueue")
        values[f"queue.{d}.enqueue_us"] = call.mean_self(f"queue.{d}.enqueue", 1e6)
        values[f"queue.{d}.drop_frac"] = _ratio(dropped, offered)
        values[f"queue.{d}.mark_frac"] = _ratio(marked, offered)

    details = runner.details
    pct, tail = tail_percentile(tasks.walls)
    map_s = parent.stats.get("runner.map", [0, 0, 0])[1] * 1e-9
    values.update(
        {
            "fleet.shard_specs_s": parent.mean_self("fleet.shard_specs", 1.0),
            "fleet.unique_shard_frac": details.get("unique_shard_frac", 0.0),
            "fleet.merges": parent.calls("fleet.merge"),
            "fleet.merge_us": parent.mean_self("fleet.merge", 1e6),
            "fleet.drop_frac": _ratio(details.get("drops", 0), details.get("packets", 0)),
            "sketch.merge_us": parent.mean_self("sketch.merge", 1e6),
            "runner.task_s_p50": statistics.median(tasks.walls) if tasks.walls else 0.0,
            "runner.task_s_tail": tail,
            "runner.task_s_tail_pct": pct,
            "runner.task_samples": len(tasks.walls),
            "runner.worker_busy_frac": _ratio(sum(tasks.walls), runner_jobs * map_s),
            "runner.result_bytes_mean": _ratio(sum(tasks.result_bytes), len(tasks.result_bytes)),
            "runner.content_key_us": parent.mean_self("runner.content_key", 1e6),
            "cache.put_us_p50": parent.median_sample("cache.put", 1e6),
            "cache.get_us_p50": parent.median_sample("cache.get", 1e6),
            "cache.hit_frac": details.get("cache_hit_frac", 0.0),
            "campaign.load_s": parent.mean_self("campaign.load", 1.0),
            "campaign.compile_s": parent.mean_self("campaign.compile", 1.0),
            "campaign.write_run_dir_s": parent.mean_self("campaign.write_run_dir", 1.0),
            "campaign.validate_s": parent.mean_self("campaign.validate", 1.0),
            "fluid.allocate_calls": call.calls("fluid.allocate"),
            "fluid.allocate_us": call.mean_self("fluid.allocate", 1e6),
            "workload.paired_run_s": call.mean_self("workload.paired_run", 1.0),
            "analysis.analyze_metric_us": call.mean_self("analysis.analyze_metric", 1e6),
            "import.repro_s": import_s,
            "trace.overhead_frac": call_traced.wall_s / call_untraced.wall_s - 1.0,
            "unattributed_frac": max(0.0, 1.0 - call.covered_ns * 1e-9 / call_traced.wall_s),
        }
    )
    return values
