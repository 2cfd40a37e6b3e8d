"""Experiment functions take only what their callers vary.

Each function that fans arms out takes one ``executor`` as its only
execution setting, and the paper's fixed treatment, lab sizes and
paired-link protocol (its design, whose links ``emulate_day_split``
reads, and its days) are module constants, so the keywords that used to
carry them are gone.  ``compare_designs`` runs in-process and takes no
executor at all.  Every ``run_*_experiment`` is keyword-only, so a stale
positional call fails instead of binding to the wrong parameter.
"""

import inspect

import pytest

from repro.experiments.alternate_designs import emulate_day_split, compare_designs
from repro.experiments.lab_cc import run_cc_experiment
from repro.experiments.lab_churn import run_churn_experiment, run_switchback_ramp_experiment
from repro.experiments.lab_connections import run_connections_experiment
from repro.experiments.lab_fleet import run_fleet_experiment
from repro.experiments.lab_l4s import run_l4s_experiment
from repro.experiments.lab_pacing import run_pacing_experiment
from repro.experiments.lab_parking_lot import run_fq_experiment, run_parking_lot_experiment
from repro.experiments.lab_topology import run_aqm_experiment, run_rtt_experiment
from repro.experiments.paired_link import PairedLinkExperiment
from repro.netsim.fleet import run_fleet
from repro.netsim.packet.sweep import run_packet_sweep

#: The packet labs that reuse the paper's connection-count treatment.
PACKET_LABS = (
    run_rtt_experiment,
    run_aqm_experiment,
    run_fq_experiment,
    run_parking_lot_experiment,
    run_churn_experiment,
    run_switchback_ramp_experiment,
    run_l4s_experiment,
)
FLUID_LABS = (run_connections_experiment, run_pacing_experiment, run_cc_experiment)
FAN_OUT = (
    run_packet_sweep,
    run_fleet,
    compare_designs,
    PairedLinkExperiment.run,
    run_fleet_experiment,
    *PACKET_LABS,
)

DELETED_KEYWORDS = [
    *((function, keyword) for function in FAN_OUT for keyword in ("jobs", "cache")),
    *(
        (function, keyword)
        for function in (run_connections_experiment, *PACKET_LABS)
        for keyword in ("treatment_connections", "control_connections")
    ),
    *((function, keyword) for function in FLUID_LABS for keyword in ("n_units", "link", "model")),
    (run_parking_lot_experiment, "cross_traffic_per_segment"),
    (run_switchback_ramp_experiment, "base_churn_per_s"),
    (run_switchback_ramp_experiment, "ramp_factor"),
    (compare_designs, "executor"),
    *(
        (PairedLinkExperiment, keyword)
        for keyword in ("design", "days", "baseline_days", "aa_days", "analysis")
    ),
    (emulate_day_split, "treated_link"),
    (emulate_day_split, "control_link"),
]


@pytest.mark.parametrize(
    ("function", "keyword"),
    DELETED_KEYWORDS,
    ids=[f"{function.__qualname__}-{keyword}" for function, keyword in DELETED_KEYWORDS],
)
def test_deleted_keyword_raises_type_error(function, keyword):
    with pytest.raises(TypeError):
        inspect.signature(function).bind_partial(**{keyword: None})


@pytest.mark.parametrize(
    "function", [*FLUID_LABS, *PACKET_LABS, run_fleet_experiment], ids=lambda f: f.__name__
)
def test_experiments_are_keyword_only(function):
    with pytest.raises(TypeError):
        inspect.signature(function).bind_partial(10)


def test_stale_positional_unit_count_fails_loudly():
    # Once ``n_units`` was the first parameter; a leftover positional 10
    # must not bind to ``noise``.
    with pytest.raises(TypeError):
        run_connections_experiment(10)
