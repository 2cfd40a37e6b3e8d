"""Each fluid lab figure's cells run only the allocations they read.

``LabFigure.cells`` reads the two TTEs (none and all of the units
treated) and the A/B estimate and spillover at half, so the ``cells`` of
fig2a, fig2b and fig3 run only those three arms of the sweep
(``CELL_ALLOCATIONS``).  Each arm keeps its ``seed + k`` noise stream,
so every cell equals, bit for bit, the cell of the full eleven-arm sweep
that ``repro fig2a``, ``fig2b`` and ``fig3`` still render.
"""

import argparse

import pytest

import repro.netsim.fluid.lab as fluid_lab
from repro.experiments.figures import figure_cells, get_figure
from repro.experiments.lab_cc import run_cc_experiment
from repro.experiments.lab_common import CELL_ALLOCATIONS, LAB_UNITS
from repro.experiments.lab_connections import run_connections_experiment
from repro.experiments.lab_pacing import run_pacing_experiment

#: figure -> the experiment whose full sweep it renders.
FULL_SWEEPS = {
    "fig2a": run_connections_experiment,
    "fig2b": run_pacing_experiment,
    "fig3": run_cc_experiment,
}


def _hex(cells):
    return {name: float.hex(value) for name, value in cells.items()}


def test_cell_allocations_are_none_half_and_all():
    assert CELL_ALLOCATIONS == (0, LAB_UNITS // 2, LAB_UNITS) == (0, 5, 10)


@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("figure", FULL_SWEEPS)
def test_cells_equal_the_full_sweeps_cells(figure, noise):
    for seed in range(20):
        full = FULL_SWEEPS[figure](noise=noise, seed=seed).cells()
        assert _hex(figure_cells(figure, noise=noise, seed=seed)) == _hex(full)


@pytest.fixture
def allocations(monkeypatch):
    """Counts the sweep's ``allocate_throughput`` calls, one per arm run."""
    calls = []
    original = fluid_lab.allocate_throughput

    def counted(link, units, model):
        calls.append(len(units))
        return original(link, units, model)

    monkeypatch.setattr(fluid_lab, "allocate_throughput", counted)
    return calls


@pytest.mark.parametrize("figure", FULL_SWEEPS)
def test_cells_allocate_three_times(figure, allocations):
    get_figure(figure).cells(0.05, 7)
    assert allocations == [LAB_UNITS] * 3


@pytest.mark.parametrize("figure", FULL_SWEEPS)
def test_render_still_runs_every_allocation(figure, allocations):
    lines = get_figure(figure).render(argparse.Namespace(), argparse.ArgumentParser(), None)
    assert len(allocations) == LAB_UNITS + 1
    # The title, the table header, one row per treated count, then the estimands.
    rows = lines[2 : 2 + LAB_UNITS + 1]
    assert [int(row.split()[0]) for row in rows] == list(range(LAB_UNITS + 1))
