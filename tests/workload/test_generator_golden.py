"""The paired-link generator, pinned column by column.

``tests/golden/workload/generator.txt`` holds, for each case below, the
row count of the table :meth:`PairedLinkWorkload.generate` returns and
the sha256 of every column's float64 bytes, in column order.  The cases
reach what the default configuration pinned by ``tests/golden/paired/``
does not: no cell shock (``hourly_shock_sigma=0``), an A/A week
(``treatment_active=False``), a plan treating all of one link and none
of the other, days on both sides of a weekend, and so few sessions per
hour that some cells are empty.  When a change is meant to move the
generator, regenerate the file from :func:`generator_golden_text`.
"""

import hashlib
from pathlib import Path

import pytest

from repro.core.designs.base import AllocationPlan
from repro.workload.netflix import PairedLinkWorkload, WorkloadConfig

GOLDEN_FILE = Path(__file__).resolve().parents[1] / "golden" / "workload" / "generator.txt"

#: Days 1-4 with the default Wednesday start: Thursday to Sunday.
WEEKEND_DAYS = (1, 2, 3, 4)

#: Link 1 fully treated, link 2 not at all.
ALL_OR_NONE = AllocationPlan(
    {(1, d): 1.0 for d in WEEKEND_DAYS} | {(2, d): 0.0 for d in WEEKEND_DAYS}
)

#: name -> (config, plan, days, treatment_active)
CASES = {
    "sparse-shock": (
        WorkloadConfig(sessions_at_peak=5, n_accounts=50, seed=11),
        ALL_OR_NONE,
        WEEKEND_DAYS,
        True,
    ),
    "sparse-no-shock": (
        WorkloadConfig(sessions_at_peak=5, n_accounts=50, hourly_shock_sigma=0.0, seed=11),
        ALL_OR_NONE,
        WEEKEND_DAYS,
        True,
    ),
    "split-no-shock": (
        WorkloadConfig(sessions_at_peak=60, n_accounts=400, hourly_shock_sigma=0.0, seed=5),
        AllocationPlan({(1, 2): 0.95, (2, 2): 0.05, (1, 3): 0.3}, default=0.5),
        (2, 3),
        True,
    ),
    "aa-shock": (
        WorkloadConfig(sessions_at_peak=60, n_accounts=400, seed=5),
        AllocationPlan({}, default=0.5),
        WEEKEND_DAYS,
        False,
    ),
    "all-or-none-inactive": (
        WorkloadConfig(sessions_at_peak=30, n_accounts=200, hourly_shock_sigma=0.0, seed=9),
        ALL_OR_NONE,
        WEEKEND_DAYS,
        False,
    ),
}


def generate(name: str):
    config, plan, days, treatment_active = CASES[name]
    return PairedLinkWorkload(config).generate(plan, days, treatment_active=treatment_active)


def case_golden_text(name: str, table) -> str:
    lines = [f"{name}:rows {len(table)}"]
    for column in table.column_names:
        values = table[column]
        assert values.dtype.name == "float64"
        lines.append(f"{name}:{column} {hashlib.sha256(values.tobytes()).hexdigest()}")
    return "\n".join(lines) + "\n"


def generator_golden_text() -> str:
    """The golden text of every case, in :data:`CASES` order."""
    return "".join(case_golden_text(name, generate(name)) for name in CASES)


def golden_case(name: str) -> str:
    prefix = f"{name}:"
    lines = GOLDEN_FILE.read_text(encoding="utf-8").splitlines()
    return "".join(f"{line}\n" for line in lines if line.startswith(prefix))


@pytest.mark.parametrize("name", CASES)
def test_generator_columns_match_golden(name):
    assert case_golden_text(name, generate(name)) == golden_case(name)


def test_sparse_cases_skip_empty_cells():
    """At five sessions per peak hour some (day, link, hour) cells draw no
    session, so the golden covers the generator's skipped-cell branch."""
    table = generate("sparse-shock")
    cells = {
        (int(d), int(link), int(h))
        for d, link, h in zip(table["day"], table["link"], table["hour"])
    }
    assert len(cells) < len(WEEKEND_DAYS) * 2 * 24


def test_golden_covers_every_case():
    names = {line.split(":", 1)[0] for line in GOLDEN_FILE.read_text().splitlines()}
    assert names == set(CASES)
