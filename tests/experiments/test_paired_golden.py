"""The paired-link layer, pinned exactly.

Each file under ``tests/golden/paired/`` holds one ``name repr(value)``
line per cell of a paired-link figure at ``quick=True, seed=0``.  Two
more pin analysis paths no figure cell reaches, on the same quick
seed-0 outcome: ``figure6.txt`` the hourly throughput series
(``OutcomeTable.groupby_mean``) and ``figure13.txt`` the hourly and
account-level estimates (``aggregate_by_account``).  The workload-table
content keys are pinned in ``tests/test_content_key_golden.py``.  When a
change is meant to move a figure, regenerate its file from
:func:`paired_golden_text`, :func:`figure6_golden_text` or
``conftest.estimates_golden_text``.
"""

import pytest

from repro.experiments.figures import get_figure
from repro.experiments.paired_link import PairedLinkExperiment, PairedLinkOutcome
from repro.workload.netflix import WorkloadConfig

PAIRED_FIGURES = ("baseline", "fig5", "fig7", "fig8", "fig9", "fig10")


def paired_golden_text(name: str) -> str:
    """The golden text of one paired-link figure's quick seed-0 cells."""
    cells = get_figure(name).cells(True, 0)
    return "".join(f"{cell} {value!r}\n" for cell, value in cells.items())


@pytest.mark.parametrize("name", PAIRED_FIGURES)
def test_paired_figure_cells(name, assert_paired_golden):
    assert_paired_golden(name, paired_golden_text(name))


def figure6_golden_text(outcome: PairedLinkOutcome) -> str:
    """The golden text of Figure 6's normalized hourly throughput series."""
    return "".join(
        f"{label}:link{link}:hour{hour:02d} {float(value)!r}\n"
        for label, links in outcome.figure6_series().items()
        for link, hours in links.items()
        for hour, value in hours.items()
    )


@pytest.fixture(scope="module")
def quick_outcome() -> PairedLinkOutcome:
    return PairedLinkExperiment(config=WorkloadConfig(sessions_at_peak=150, seed=0)).run()


def test_figure6_series(quick_outcome, assert_paired_golden):
    assert_paired_golden("figure6", figure6_golden_text(quick_outcome))


def test_figure13_ci_comparison(quick_outcome, assert_estimates_golden):
    assert_estimates_golden(
        "figure13",
        {
            f"{aggregation}:{metric}": estimate
            for aggregation, per_metric in quick_outcome.figure13_ci_comparison().items()
            for metric, estimate in per_metric.items()
        },
    )
