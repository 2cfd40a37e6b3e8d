"""Shared fixtures for the figure-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper.  The
expensive inputs (the paired-link workload run) are produced once per
session and shared; each benchmark then times the analysis step that
produces its figure and asserts the qualitative shape the paper reports.

Run with:  pytest benchmarks/ --benchmark-only

Setting ``BENCH_JSON=/path/to/out.json`` additionally exports every
benchmark test's call duration to a JSON file when the session ends —
the raw material of the perf trajectory.  CI runs the suite with the
export enabled, uploads the file as an artifact and fails the build when
a test regresses more than 3x against the committed repo-root
``BENCH_baseline.json`` (see ``benchmarks/check_regression.py``).

Benchmarks that measure *absolute* engine throughput (the packet-engine
microbenchmarks) additionally record packets/sec and events/sec through
the ``throughput`` fixture; those land in the export's ``throughput``
section, from which ``check_regression.py`` prints a speedup/slowdown
delta table against the baseline (informational — wall-time is the
gate).

When the export is enabled, each benchmark's call phase also runs under
``tracemalloc`` and its peak traced allocation lands in the export's
``memory`` section (schema 3) — informational like throughput, never a
gate.  Tracing is gated on ``BENCH_JSON`` so plain benchmark runs pay no
tracemalloc overhead (and wall times in the export carry the overhead
uniformly, so deltas against the baseline stay comparable).
"""

import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments.paired_link import PairedLinkExperiment  # noqa: E402
from repro.workload.netflix import WorkloadConfig  # noqa: E402

#: Days of the main experiment (Wednesday through Sunday).
EXPERIMENT_DAYS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="session")
def paired_experiment():
    """The paired-link experiment configuration used by all benchmarks."""
    config = WorkloadConfig(sessions_at_peak=300, n_accounts=4000, seed=7)
    return PairedLinkExperiment(config=config)


@pytest.fixture(scope="session")
def paired_outcome(paired_experiment):
    """One full run of the paired-link experiment, shared across benchmarks."""
    return paired_experiment.run()


def run_once(benchmark, fn, *args, **kwargs):
    """Run a benchmark exactly once (the workloads are too large to repeat)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


# -- timing export (the BENCH_*.json perf trajectory) --------------------------

#: Call durations per test nodeid, filled by the logreport hook.  Only
#: populated when this conftest is loaded, i.e. for benchmark items.
_TIMINGS: dict[str, float] = {}

#: Absolute-throughput metrics per test nodeid, filled by the
#: ``throughput`` fixture (packet-engine microbenchmarks only).
_THROUGHPUT: dict[str, dict[str, float]] = {}

#: Peak traced allocation (bytes) per test nodeid; only populated when
#: ``BENCH_JSON`` enables the export (tracemalloc is not free).
_MEMORY: dict[str, float] = {}


class ThroughputRecorder:
    """Records one benchmark's absolute engine throughput for the export."""

    def __init__(self, nodeid: str):
        self.nodeid = nodeid

    def record(self, *, packets: float, events: float, seconds: float) -> None:
        """Record absolute rates for this benchmark.

        ``packets`` counts (MSS-sized) segments sent, ``events`` the
        scheduler callbacks executed, over ``seconds`` of wall time.
        """
        self.record_rates(seconds=seconds, packets=packets, events=events)

    def record_rates(self, *, seconds: float, **counts: float) -> None:
        """Record arbitrary named counts as ``<name>_per_s`` rates.

        The generic form of :meth:`record`: fleet benchmarks report
        ``units``, the fluid microbenchmarks ``steps``, the packet-engine
        ones ``packets``/``events`` — ``check_regression.py`` renders
        whatever names appear in the export.
        """
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        _THROUGHPUT[self.nodeid] = {
            f"{name}_per_s": count / seconds for name, count in sorted(counts.items())
        }


@pytest.fixture
def throughput(request):
    """Recorder benchmarks use to report absolute pkts/sec and events/sec."""
    return ThroughputRecorder(request.node.nodeid)


def pytest_runtest_logreport(report):
    """Record every benchmark test's call-phase wall time."""
    if report.when == "call" and report.passed:
        _TIMINGS[report.nodeid] = report.duration


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Measure each test's peak memory when the JSON export is enabled."""
    if not os.environ.get("BENCH_JSON") or tracemalloc.is_tracing():
        # Not exporting, or something outer already traces (nested
        # tracemalloc starts would reset its peak counter).
        yield
        return
    tracemalloc.start()
    try:
        yield
        _MEMORY[item.nodeid] = float(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def pytest_sessionfinish(session):
    """Export the collected timings when ``BENCH_JSON`` names a file."""
    out = os.environ.get("BENCH_JSON")
    if not out or not _TIMINGS:
        return
    payload = {
        "schema": 3,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timings": dict(sorted(_TIMINGS.items())),
        "throughput": dict(sorted(_THROUGHPUT.items())),
        "memory": dict(sorted(_MEMORY.items())),
    }
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
