"""Shared fixtures for the experiment tests: the lab-figure goldens.

Each file under ``tests/golden/lab/`` pins one lab figure's output
exactly: its ``summary_lines()``, then one ``name repr(value)`` line per
cell of ``cells()``, in order.  The tests compare the module-scoped
results the experiment tests already compute, so the goldens add no
simulations.  When a change is meant to move a figure, regenerate its
file from :func:`lab_golden_text` of the new result.
"""

from pathlib import Path

import pytest

LAB_GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden" / "lab"


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
