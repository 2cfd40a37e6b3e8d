"""``repro report RUNDIR`` — render a traced run directory as text.

Reads the artifacts :class:`~repro.obs.trace.RunTracer` wrote
(``meta.json``, ``trace.jsonl``, ``profile.json``) and renders a compact
run report: command, wall time, task/cache totals, engine counters, the
slowest tasks, and the merged cProfile hotspot table when profiling was
on.  Every artifact is optional — the report renders whatever exists.
``meta.json`` is written last, by :meth:`~repro.obs.trace.RunTracer.finish`,
so a directory without it holds an incomplete run: the report says so and
``repro report`` exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.obs.profile import format_hotspots

__all__ = ["configure_parser", "render_report", "run_report"]


def _load_json(path: Path) -> dict[str, Any] | None:
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _load_jsonl(path: Path) -> list[dict[str, Any]]:
    if not path.exists():
        return []
    events: list[dict[str, Any]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict):
            events.append(event)
    return events


def _format_count(value: float) -> str:
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.2f}"


def render_report(rundir: str | Path, top: int = 15) -> str:
    """Render the text report for one traced run directory."""
    rundir = Path(rundir)
    meta = _load_json(rundir / "meta.json")
    events = _load_jsonl(rundir / "trace.jsonl")
    profile = _load_json(rundir / "profile.json")

    lines: list[str] = [f"run report: {rundir}"]

    if meta is None and not events and profile is None:
        lines.append("  (no trace artifacts found — run with --trace DIR)")
        return "\n".join(lines)

    if meta is None:
        lines.append("  incomplete: no meta.json (killed or still running)")
    else:
        if meta.get("command"):
            lines.append(f"  command:  {meta['command']}")
        if "wall_s" in meta:
            lines.append(f"  wall:     {float(meta['wall_s']):.2f}s")
        tasks = meta.get("tasks")
        hits = int(meta.get("cache_hits", 0))
        misses = int(meta.get("cache_misses", 0))
        if tasks is not None or hits or misses:
            lines.append(
                f"  tasks:    {tasks if tasks is not None else '?'} executed, "
                f"{hits} cache hit(s), {misses} miss(es)"
            )
        workers = meta.get("workers") or []
        if workers:
            lines.append(f"  workers:  {len(workers)} pid(s)")
        for key in ("shards", "units", "units_per_s"):
            if key in meta:
                value = meta[key]
                rendered = f"{value:,.1f}" if isinstance(value, float) else f"{value:,}"
                lines.append(f"  {key + ':':<9} {rendered}")

    task_events = [e for e in events if e.get("event") == "task"]
    if task_events:
        lines.append("")
        lines.append(f"slowest tasks ({min(len(task_events), 10)} of {len(task_events)}):")
        slowest = sorted(task_events, key=lambda e: -float(e.get("wall_s", 0.0)))[:10]
        for event in slowest:
            label = str(event.get("label", "?"))
            lines.append(
                f"  {float(event.get('wall_s', 0.0)):>8.2f}s  pid {event.get('pid', '?')}  {label}"
            )

    counters = (meta or {}).get("counters") or {}
    if counters:
        lines.append("")
        lines.append("engine counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {_format_count(float(counters[name]))}")

    if profile is not None and profile.get("rows"):
        lines.append("")
        lines.append(f"cProfile hotspots ({profile.get('tasks_profiled', '?')} task(s) profiled):")
        for line in format_hotspots(profile["rows"], top=top).splitlines():
            lines.append(f"  {line}")

    return "\n".join(lines)


def configure_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Declare the ``repro report`` flags on the CLI's ``report`` subcommand parser."""
    parser.add_argument("rundir", help="Run directory written by --trace")
    parser.add_argument("--top", type=int, default=15, help="Hotspot rows to show (default 15)")
    return parser


def run_report(options: argparse.Namespace) -> int:
    """Execute ``repro report`` from parsed options; returns the exit code."""
    rundir = Path(options.rundir)
    if not rundir.is_dir():
        print(f"error: {rundir} is not a directory", file=sys.stderr)
        return 2
    print(render_report(rundir, top=options.top))
    return 0 if _load_json(rundir / "meta.json") is not None else 1
