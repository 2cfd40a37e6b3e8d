"""Tests for ``repro report`` and the new observability CLI flags."""

import pytest

from repro.cli import build_parser, main
from repro.obs.report import render_report
from repro.obs.trace import RunTracer, TaskRun
from repro.runner import ParallelExecutor, ScenarioSpec


def _traced_rundir(tmp_path, profile=False):
    rundir = tmp_path / "run"
    tracer = RunTracer(rundir, command="repro sweep fig2a --trace ...")
    specs = [
        ScenarioSpec(task="debug.echo", params={"index": i}, seed=i) for i in range(3)
    ]
    ParallelExecutor(jobs=1, tracer=tracer, profile=profile).map(specs)
    tracer.add_counters({"events_processed": 1234, "pool_reused": 56})
    tracer.finish({"figure": "fig2a"})
    return rundir


class TestRenderReport:
    def test_full_report_sections(self, tmp_path):
        report = render_report(_traced_rundir(tmp_path, profile=True))
        assert "command:  repro sweep fig2a" in report
        assert "3 executed" in report
        assert "slowest tasks" in report
        assert "engine counters:" in report
        assert "events_processed  1,234" in report
        assert "cProfile hotspots" in report
        assert "tottime" in report

    def test_unprofiled_run_omits_hotspots(self, tmp_path):
        report = render_report(_traced_rundir(tmp_path, profile=False))
        assert "engine counters:" in report
        assert "cProfile" not in report

    def test_empty_directory_falls_back(self, tmp_path):
        report = render_report(tmp_path)
        assert "no trace artifacts found" in report

    def test_partial_artifacts_render(self, tmp_path):
        # Only trace.jsonl (e.g. the run crashed before finish()).
        tracer = RunTracer(tmp_path / "run")
        tracer.task(TaskRun(task="t", label="slow-one", started=tracer.started,
                            wall_s=1.5, pid=9))
        tracer._jsonl.close()
        (tmp_path / "run" / "meta.json").unlink(missing_ok=True)
        report = render_report(tmp_path / "run")
        assert "slow-one" in report
        assert report.splitlines()[1] == "  incomplete: no meta.json (killed or still running)"


class TestReportCommand:
    def test_report_renders_traced_run(self, tmp_path, capsys):
        rundir = _traced_rundir(tmp_path)
        assert main(["report", str(rundir)]) == 0
        out = capsys.readouterr().out
        assert "run report:" in out
        assert "engine counters:" in out

    def test_incomplete_run_exits_nonzero(self, tmp_path, capsys):
        # A campaign killed before RunTracer.finish leaves only trace.jsonl.
        rundir = _traced_rundir(tmp_path)
        for path in rundir.iterdir():
            if path.name != "trace.jsonl":
                path.unlink()
        assert main(["report", str(rundir)]) == 1
        out = capsys.readouterr().out
        assert "incomplete: no meta.json" in out
        assert "slowest tasks" in out
        (tmp_path / "empty").mkdir()
        assert main(["report", str(tmp_path / "empty")]) == 1
        assert "no trace artifacts found" in capsys.readouterr().out

    def test_report_rejects_missing_directory(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_report_top_flag(self, tmp_path, capsys):
        rundir = _traced_rundir(tmp_path, profile=True)
        assert main(["report", str(rundir), "--top", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines) if "tottime" in line)
        assert len(lines[header + 1 :]) <= 3


class TestObservabilityFlags:
    def test_trace_profile_probe_parse(self):
        args = build_parser().parse_args(
            ["fleet", "--trace", "/tmp/r", "--profile", "--probe", "0.5"]
        )
        assert args.trace == "/tmp/r"
        assert args.profile is True
        assert args.probe == 0.5

    def test_profile_requires_trace(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--quick", "--profile"])
        assert "--profile requires --trace" in capsys.readouterr().err

    def test_probe_only_for_fleet(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig2a", "--probe", "0.5"])
        assert "--probe" in capsys.readouterr().err

    def test_trace_only_for_sweep_and_fleet(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig2a", "--trace", "/tmp/r"])
        assert "--trace" in capsys.readouterr().err

    def test_negative_probe_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--quick", "--probe", "-1"])
        assert "--probe" in capsys.readouterr().err


class TestTracedFleetEndToEnd:
    def test_traced_probed_fleet_then_report(self, tmp_path, capsys):
        rundir = tmp_path / "rundir"
        assert (
            main(
                [
                    "fleet",
                    "--units", "40",
                    "--edges", "4",
                    "--quick",
                    "--trace", str(rundir),
                    "--profile",
                    "--probe", "0.5",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["report", str(rundir)]) == 0
        out = capsys.readouterr().out
        assert "shards:" in out
        assert "events_processed" in out
        assert "cProfile hotspots" in out
