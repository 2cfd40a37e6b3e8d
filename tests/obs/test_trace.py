"""Tests for run tracing, profiling and the traced executor."""

import io
import json

from repro.obs.profile import run_profiled, format_hotspots, merge_profile_rows
from repro.obs.trace import observe_spec, ProgressPrinter, RunTracer, TaskRun
from repro.runner import ParallelExecutor, ResultCache, ScenarioSpec, get_task


def _echo_specs(n):
    return [
        ScenarioSpec(task="debug.echo", params={"index": i}, seed=i) for i in range(n)
    ]


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestRunTracer:
    def test_artifacts_written(self, tmp_path):
        rundir = tmp_path / "run"
        tracer = RunTracer(rundir, command="repro sweep fig2a")
        tracer.cache_event(hit=False, label="arm0")
        tracer.cache_event(hit=True, label="arm0")
        tracer.task(
            TaskRun(task="packet_arm", label="arm0", started=tracer.started,
                    wall_s=0.25, pid=123)
        )
        tracer.add_counters({"events_processed": 10})
        tracer.add_counters({"events_processed": 5, "pool_reused": 3})
        summary = tracer.finish({"figure": "fig2a"})

        events = _read_jsonl(rundir / "trace.jsonl")
        assert [e["event"] for e in events] == [
            "run_start", "cache", "cache", "task", "run_end",
        ]
        assert events[0]["command"] == "repro sweep fig2a"
        assert events[3]["pid"] == 123

        assert summary["tasks"] == 1
        assert summary["cache_hits"] == 1
        assert summary["cache_misses"] == 1
        assert summary["workers"] == [123]
        assert summary["counters"] == {"events_processed": 15.0, "pool_reused": 3.0}
        assert summary["figure"] == "fig2a"
        assert json.loads((rundir / "meta.json").read_text()) == summary

    def test_chrome_trace_is_perfetto_loadable_shape(self, tmp_path):
        tracer = RunTracer(tmp_path / "run")
        tracer.task(
            TaskRun(task="packet_arm", label="arm0", started=tracer.started + 0.1,
                    wall_s=0.5, pid=42)
        )
        tracer.finish()
        trace = json.loads((tmp_path / "run" / "trace.json").read_text())
        assert trace["displayTimeUnit"] == "ms"
        (event,) = trace["traceEvents"]
        assert event["ph"] == "X"
        assert event["pid"] == 42
        assert event["dur"] == 0.5 * 1e6
        assert event["ts"] >= 0.0

    def test_no_profile_json_without_profiling(self, tmp_path):
        tracer = RunTracer(tmp_path / "run")
        tracer.finish()
        assert not (tmp_path / "run" / "profile.json").exists()

    def test_profile_json_with_rows(self, tmp_path):
        tracer = RunTracer(tmp_path / "run")
        tracer.task(
            TaskRun(task="t", label="t", started=tracer.started, wall_s=0.1,
                    pid=1, profile_rows=(("mod.py:1(f)", 2, 0.5, 0.7),))
        )
        tracer.finish()
        payload = json.loads((tmp_path / "run" / "profile.json").read_text())
        assert payload["tasks_profiled"] == 1
        assert payload["rows"] == [["mod.py:1(f)", 2, 0.5, 0.7]]


class TestProfiling:
    def test_run_profiled_returns_result_and_rows(self):
        result, rows = run_profiled(lambda: sorted(range(1000)))
        assert result[:3] == [0, 1, 2]
        assert rows
        assert all(len(row) == 4 for row in rows)

    def test_merge_sums_per_label(self):
        merged = merge_profile_rows(
            [
                [("f", 1, 0.5, 1.0), ("g", 2, 0.25, 0.25)],
                [("f", 3, 0.5, 1.0)],
            ]
        )
        as_map = {label: (n, tot, cum) for label, n, tot, cum in merged}
        assert as_map["f"] == (4, 1.0, 2.0)
        assert as_map["g"] == (2, 0.25, 0.25)
        # Sorted hottest-first by tottime.
        assert merged[0][0] == "f"

    def test_format_hotspots_table(self):
        table = format_hotspots([("pkg/mod.py:10(run)", 5, 1.25, 2.5)])
        assert "tottime" in table.splitlines()[0]
        assert "pkg/mod.py:10(run)" in table
        assert "1.250" in table

    def test_format_hotspots_respects_top(self):
        rows = [(f"f{i}", 1, 1.0 - i * 0.01, 1.0) for i in range(30)]
        table = format_hotspots(rows, top=5)
        assert len(table.splitlines()) == 6  # header + 5 rows


class TestObserveSpec:
    def test_wraps_result_and_timing(self):
        run = observe_spec(
            ScenarioSpec(task="debug.echo", params={"x": 1}, seed=7), get_task("debug.echo")
        )
        assert run.task == "debug.echo"
        assert run.result["x"] == 1
        assert run.wall_s >= 0.0
        assert run.pid > 0
        assert run.profile_rows == ()

    def test_profile_flag_collects_rows(self):
        run = observe_spec(
            ScenarioSpec(task="debug.echo", params={"x": 1}), get_task("debug.echo"), profile=True
        )
        assert run.profile_rows


class TestTracedExecutor:
    def test_traced_map_matches_plain_map(self, tmp_path):
        specs = _echo_specs(4)
        plain = ParallelExecutor(jobs=1).map(specs)
        traced = ParallelExecutor(
            jobs=1, tracer=RunTracer(tmp_path / "t1")
        ).map(specs)
        assert plain == traced

    def test_jobs_1_vs_4_identical_with_tracing_and_profile(self, tmp_path):
        specs = _echo_specs(6)
        serial = ParallelExecutor(
            jobs=1, tracer=RunTracer(tmp_path / "s"), profile=True
        ).map(specs)
        parallel = ParallelExecutor(
            jobs=4, tracer=RunTracer(tmp_path / "p"), profile=True
        ).map(specs)
        assert serial == parallel

    def test_tracer_records_every_task_span(self, tmp_path):
        tracer = RunTracer(tmp_path / "run")
        ParallelExecutor(jobs=2, tracer=tracer).map(_echo_specs(5))
        assert len(tracer.tasks) == 5
        assert {run.task for run in tracer.tasks} == {"debug.echo"}

    def test_cache_events_recorded(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = _echo_specs(3)
        tracer = RunTracer(tmp_path / "first")
        ParallelExecutor(jobs=1, cache=cache, tracer=tracer).map(specs)
        assert (tracer.cache_hits, tracer.cache_misses) == (0, 3)

        tracer = RunTracer(tmp_path / "second")
        ParallelExecutor(jobs=1, cache=cache, tracer=tracer).map(specs)
        assert (tracer.cache_hits, tracer.cache_misses) == (3, 0)

    def test_on_task_done_progress_callback(self, tmp_path):
        seen = []
        ParallelExecutor(
            jobs=1, on_task_done=lambda done, total, run: seen.append((done, total))
        ).map(_echo_specs(3))
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestProgressPrinter:
    def test_prints_rate_line_and_final_newline(self):
        stream = io.StringIO()
        progress = ProgressPrinter(label="shards", stream=stream)
        progress(1, 2)
        progress(2, 2)
        output = stream.getvalue()
        assert "shards: 1/2" in output
        assert output.endswith("\n")
        assert "\r" in output

    def test_resets_between_batches(self):
        stream = io.StringIO()
        progress = ProgressPrinter(stream=stream)
        progress(1, 1)
        progress(1, 1)  # done went backwards-or-equal: a new batch began
        assert stream.getvalue().count("1/1") == 2
