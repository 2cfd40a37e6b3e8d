"""Names and options removed because nothing outside their own tests used them.

Each figure, campaign, example and benchmark reaches the paper's estimands
through a small part of ``repro.core``, ``repro.netsim`` and
``repro.experiments``.  These cases keep the public API from growing the
removed names and options back.
"""

import importlib

import pytest

from repro.core.assignment import interval_assignment
from repro.netsim.packet.engine import EventScheduler
from repro.netsim.packet.queue import make_queue

DELETED = [
    ("repro.core.units", "Unit"),
    ("repro.core.units", "Session"),
    ("repro.core.units", "OutcomeTable.from_sessions"),
    ("repro.core.units", "OutcomeTable.from_records"),
    ("repro.core.units", "OutcomeTable.to_records"),
    ("repro.core.units", "OutcomeTable.with_column"),
    ("repro.core.units", "OutcomeTable.concat"),
    ("repro.core.assignment", "Assignment"),
    ("repro.core.assignment", "bernoulli_assignment"),
    ("repro.core.assignment", "fixed_fraction_assignment"),
    ("repro.core.estimands", "EstimandSet"),
    ("repro.core.estimands", "PotentialOutcomeCurve.estimands"),
    ("repro.core.estimands", "AllocationSweep.ab_estimates"),
    ("repro.core.estimators", "quantile_treatment_effect"),
    ("repro.core.analysis.regression", "OLSResult.r_squared"),
    ("repro.netsim.fluid.link", "BottleneckLink.fair_share_mbps"),
    ("repro.netsim.fluid.link", "BottleneckLink.bdp_packets"),
    ("repro.netsim.fleet.spec", "FleetSpec.edges_in_region"),
    ("repro.netsim.traffic.arrivals", "OnOffSource"),
    ("repro.netsim.traffic.demand", "StepDemand"),
    ("repro.netsim.traffic.demand", "DiurnalDemand"),
    ("repro.netsim.traffic.sizes", "LogNormalSizes"),
    ("repro.netsim.traffic.sizes", "EmpiricalSizes"),
    ("repro.experiments.lab_common", "LabFigureRow.ab_throughput_effect"),
    ("repro.netsim.packet.engine", "EventScheduler.cancel"),
    ("repro.netsim.packet.engine", "EventScheduler.step"),
    ("repro.netsim.packet.engine", "EventScheduler.schedule_in"),
    ("repro.netsim.packet.engine", "EventScheduler.__len__"),
]


@pytest.mark.parametrize(("module", "name"), DELETED)
def test_deleted_name_is_absent(module, name):
    owner = importlib.import_module(module)
    *path, attribute = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, attribute)


def _queue(discipline, **params):
    return make_queue(
        discipline,
        EventScheduler(),
        8_000_000.0,
        100_000.0,
        lambda packet, now: None,
        lambda packet, now: None,
        **params,
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: _queue("codel", ce_threshold_s=0.001),
        lambda: _queue("fq_codel", ce_threshold_s=0.001),
        lambda: _queue("red", mark_threshold=0.1),
        lambda: interval_assignment(4, seed=0, force_both_arms=True),
    ],
    ids=[
        "codel-ce_threshold_s",
        "fq_codel-ce_threshold_s",
        "red-mark_threshold",
        "interval_assignment-force_both_arms",
    ],
)
def test_removed_option_is_rejected(build):
    with pytest.raises(TypeError):
        build()
