"""The paired-link layer, pinned exactly.

Each file under ``tests/golden/paired/`` holds one ``name repr(value)``
line per cell of a paired-link figure at ``quick=True, seed=0``.  The
workload-table content keys are pinned in
``tests/test_content_key_golden.py``.  When a change is meant to move a
figure, regenerate its file from :func:`paired_golden_text`.
"""

from pathlib import Path

import pytest

import repro.experiments  # noqa: F401  (registers the figures)
from repro.experiments.figures import FIGURES

PAIRED_GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden" / "paired"

PAIRED_FIGURES = ("baseline", "fig5", "fig7", "fig8", "fig9", "fig10")


def paired_golden_text(name: str) -> str:
    """The golden text of one paired-link figure's quick seed-0 cells."""
    cells = FIGURES[name].cells(True, 0)
    return "".join(f"{cell} {value!r}\n" for cell, value in cells.items())


@pytest.mark.parametrize("name", PAIRED_FIGURES)
def test_paired_figure_cells(name):
    expected = (PAIRED_GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert paired_golden_text(name) == expected
