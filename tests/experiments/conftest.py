"""Shared fixtures for the experiment tests: the lab and paired-link goldens.

Each file under ``tests/golden/lab/`` pins one lab figure's output
exactly: its ``summary_lines()``, then one ``name repr(value)`` line per
cell of ``cells()``, in order.  The tests compare the module-scoped
results the experiment tests already compute, so the goldens add no
simulations.  When a change is meant to move a figure, regenerate its
file from :func:`lab_golden_text` of the new result.

Each file under ``tests/golden/paired/`` pins paired-link output in the
same ``name repr(value)`` form; a file of estimates holds every number
of each estimate, written by :func:`estimates_golden_text`.

Each file under ``tests/golden/packet_arms/`` pins the content key and
label of every ``netsim.packet_arm`` spec one quick packet lab runs, in
submission order, one ``key label`` line each.  The lab fixtures run on
a :class:`RecordingExecutor` from :func:`packet_arm_recorders`, so these
goldens add no simulations either; regenerate one from
:func:`packet_arm_golden_text` only when a change is meant to re-key the
lab's cache entries.
"""

from collections import defaultdict
from collections.abc import Iterable, Mapping
from pathlib import Path

import pytest

from repro.core.analysis.pipeline import MetricEstimate
from repro.runner.executor import ParallelExecutor
from repro.runner.spec import ScenarioSpec, content_key

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
LAB_GOLDEN_DIR = GOLDEN_DIR / "lab"
PAIRED_GOLDEN_DIR = GOLDEN_DIR / "paired"
PACKET_ARM_GOLDEN_DIR = GOLDEN_DIR / "packet_arms"


def lab_golden_text(result) -> str:
    """The golden text of a lab figure or bias comparison."""
    lines = list(result.summary_lines())
    lines.extend(f"{name} {value!r}" for name, value in result.cells().items())
    return "\n".join(lines) + "\n"


@pytest.fixture
def assert_lab_golden():
    """Check a result against ``tests/golden/lab/<name>.txt``, byte for byte."""

    def check(name: str, result) -> None:
        expected = (LAB_GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
        assert lab_golden_text(result) == expected

    return check


def estimates_golden_text(estimates: Mapping[str, MetricEstimate]) -> str:
    """Every number of each estimate: baseline, then both scales' point
    estimate, standard error, CI bounds and n."""
    lines: list[str] = []
    for name, estimate in estimates.items():
        lines.append(f"{name}:baseline {float(estimate.baseline)!r}")
        for scale in ("absolute", "relative"):
            ci = getattr(estimate, scale)
            lines.extend(
                f"{name}:{scale}.{field} {float(getattr(ci, field))!r}"
                for field in ("estimate", "std_error", "ci_low", "ci_high")
            )
            lines.append(f"{name}:{scale}.n {int(ci.n)!r}")
    return "".join(f"{line}\n" for line in lines)


@pytest.fixture
def assert_paired_golden():
    """Check text against ``tests/golden/paired/<name>.txt``, byte for byte."""

    def check(name: str, text: str) -> None:
        expected = (PAIRED_GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
        assert text == expected

    return check


@pytest.fixture
def assert_estimates_golden(assert_paired_golden):
    """Check a ``{name: MetricEstimate}`` mapping against its paired golden."""

    def check(name: str, estimates: Mapping[str, MetricEstimate]) -> None:
        assert_paired_golden(name, estimates_golden_text(estimates))

    return check


class RecordingExecutor(ParallelExecutor):
    """A serial, uncached executor that also keeps every spec it maps."""

    def __init__(self):
        super().__init__()
        self.specs: list[ScenarioSpec] = []

    def map(self, specs):
        specs = list(specs)
        self.specs.extend(specs)
        return super().map(specs)


@pytest.fixture(scope="module")
def packet_arm_recorders():
    """One :class:`RecordingExecutor` per name, shared across a test module."""
    return defaultdict(RecordingExecutor)


def packet_arm_golden_text(specs: Iterable[ScenarioSpec]) -> str:
    """One ``content_key label`` line per spec, in submission order."""
    return "".join(f"{content_key(spec)} {spec.label}\n" for spec in specs)


@pytest.fixture
def assert_packet_arm_golden():
    """Check specs against ``tests/golden/packet_arms/<name>.txt``, byte for byte."""

    def check(name: str, specs: Iterable[ScenarioSpec]) -> None:
        specs = list(specs)
        assert {spec.task for spec in specs} == {"netsim.packet_arm"}
        expected = (PACKET_ARM_GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
        assert packet_arm_golden_text(specs) == expected

    return check
