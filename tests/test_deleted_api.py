"""Names and options removed because nothing outside their own tests used them.

Each figure, campaign, example and benchmark reaches the paper's estimands
through a small part of ``repro.core``, ``repro.netsim`` and
``repro.experiments``.  These cases keep the public API from growing the
removed names and options back.
"""

import importlib
import inspect

import pytest

from repro.core.assignment import interval_assignment
from repro.netsim.fluid.competition import allocate_throughput, link_loss_rate
from repro.netsim.fluid.lab import LabExperimentResult
from repro.netsim.packet.engine import EventScheduler
from repro.netsim.packet.network import Network, parking_lot_path, parking_lot_queues
from repro.netsim.packet.queue import make_queue
from repro.netsim.packet.simulation import simulate
from repro.netsim.packet.sweep import run_packet_sweep

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
    ("repro.netsim.traffic.source", "DynamicTrafficResult.mean_fct_s"),
    ("repro.netsim.traffic.source", "DynamicTrafficResult.p95_fct_s"),
    ("repro.netsim.fluid.lab", "LabExperimentResult.group_values"),
    ("repro.netsim.fluid.application", "Application.as_treated"),
    ("repro.netsim.fluid.application", "Application.as_control"),
    ("repro.experiments.figures", "register"),
    ("repro.experiments.figures", "FIGURES"),
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


#: Packet-layer keywords no figure, campaign, example or benchmark set.
#: A sweep arm's geometry is the paper's (20 ms, one BDP, 1500 bytes), a
#: lossy arm is a factory path with a ``loss_rate``, a tuned or seeded
#: queue is a ``QueueConfig`` in ``extra_queues``, and batched or probed
#: arms are hand-built ``netsim.packet_arm`` specs.
REMOVED_KEYWORDS = [
    *(
        (run_packet_sweep, keyword)
        for keyword in (
            "base_rtt_ms",
            "buffer_bdp",
            "mss_bytes",
            "queue_params",
            "loss_rate",
            "event_batching",
            "probe",
        )
    ),
    (simulate, "queue_params"),
    (Network, "queue_params"),
    *(
        (parking_lot_queues, keyword)
        for keyword in ("capacities", "buffer_bdp", "discipline", "params")
    ),
    (parking_lot_path, "rtt_ms"),
    (parking_lot_path, "loss_rate"),
    # The fluid kernels take unit columns (``UnitColumns``), and a lab
    # run holds per-unit arrays rather than its ``Application`` list.
    (allocate_throughput, "applications"),
    (link_loss_rate, "applications"),
    (LabExperimentResult, "applications"),
]


@pytest.mark.parametrize(
    ("function", "keyword"),
    REMOVED_KEYWORDS,
    ids=[f"{function.__name__}-{keyword}" for function, keyword in REMOVED_KEYWORDS],
)
def test_removed_keyword_raises_type_error(function, keyword):
    with pytest.raises(TypeError):
        inspect.signature(function).bind_partial(**{keyword: None})
