"""Lint configuration: rule scopes and the content-key task baseline.

Three pieces of repo-specific policy live here rather than in the rules
themselves:

* ``RULE_SCOPES`` — which parts of the ``repro`` package each rule
  patrols.  Determinism rules cover the simulation and runner layers
  (randomness in reporting code is harmless); the content-key and API
  rules cover the whole package.

* ``TASK_PARAM_BASELINE`` — the recorded required parameters of every
  registered runner task.  The content-key contract (KEY002) is that a
  task's spec surface only grows by *inert-at-default* fields: a new
  parameter must carry a default, so existing specs — and therefore
  existing cache keys — are unaffected.  A parameter without a default
  is only legal if it is recorded here, which makes widening a task's
  required surface an explicit, reviewed act.

* ``LAYER_IMPORTERS`` — the upper layers of the package and the modules
  allowed to import each (LAY001).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

__all__ = [
    "LintConfig",
    "DEFAULT_CONFIG",
    "RULE_SCOPES",
    "TASK_PARAM_BASELINE",
    "LAYER_IMPORTERS",
]

#: Module-prefix scopes per rule code (``None`` would mean "everywhere").
RULE_SCOPES: dict[str, tuple[str, ...]] = {
    # Unseeded randomness: anywhere a simulation result could absorb it.
    "DET001": (
        "repro.netsim",
        "repro.core",
        "repro.runner",
        "repro.workload",
        "repro.obs",
        "repro.campaign",
    ),
    # Wall-clock reads: simulation, runner and experiment layers must be
    # pure functions of their specs.  The observability layer is in scope
    # too — its single sanctioned clock read (``repro.obs.trace.walltime``)
    # carries an explicit suppression.
    "DET002": (
        "repro.netsim",
        "repro.core",
        "repro.runner",
        "repro.workload",
        "repro.experiments",
        "repro.obs",
        "repro.campaign",
    ),
    # Unordered iteration: same blast radius as DET002.
    "DET003": (
        "repro.netsim",
        "repro.core",
        "repro.runner",
        "repro.workload",
        "repro.experiments",
        "repro.obs",
        "repro.campaign",
    ),
    # Content-key hygiene and API hygiene patrol the whole package.
    "KEY001": ("repro",),
    "KEY002": ("repro",),
    "API001": ("repro",),
    "LAY001": ("repro",),
}

#: Upper layers and the module prefixes allowed to import each (LAY001).
#: Every other ``repro`` module sits below them.  Edges between the lower
#: layers (netsim -> runner, netsim -> obs, netsim.traffic ->
#: workload.demand) are not policed.
LAYER_IMPORTERS: dict[str, tuple[str, ...]] = {
    "repro.experiments": (
        "repro.experiments",
        "repro.campaign",
        "repro.api",
        "repro.cli",
        "repro.__main__",
    ),
    "repro.campaign": ("repro.campaign", "repro.api", "repro.cli"),
    "repro.cli": ("repro.cli", "repro.api", "repro.__main__"),
    "repro.api": ("repro.api", "repro.cli", "repro.__main__"),
}

#: Required (default-less) parameters recorded per registered task.
#: KEY002 flags any default-less parameter not listed here.
TASK_PARAM_BASELINE: dict[str, frozenset[str]] = {
    "debug.echo": frozenset(),
    "netsim.packet_arm": frozenset(
        {"flows", "capacity_mbps", "base_rtt_ms", "buffer_bdp", "duration_s", "warmup_s"}
    ),
    "fleet.shard_arm": frozenset(
        {
            "treated_mask",
            "treatment_connections",
            "control_connections",
            "capacity_mbps",
            "rtt_ms",
            "loss_rate",
            "buffer_bdp",
            "duration_s",
            "warmup_s",
        }
    ),
    "netsim.fluid_arm": frozenset({"applications"}),
    "workload.baseline_table": frozenset({"config", "days"}),
    "workload.experiment_table": frozenset({"config", "design", "days"}),
    "workload.aa_table": frozenset({"config", "days"}),
    "experiments.switchback_emulation": frozenset({"table", "days", "metrics"}),
    "experiments.event_study_emulation": frozenset({"table", "days", "metrics"}),
    "figure.cells": frozenset({"figure"}),
}


@dataclass(frozen=True)
class LintConfig:
    """Tunable policy for one lint run.

    Attributes
    ----------
    rule_scopes:
        Maps rule code to the dotted module prefixes it applies to.
        Rules missing from the mapping apply everywhere.
    task_param_baseline:
        Recorded required parameters per registered task (KEY002).
        Tasks missing from the mapping allow no default-less parameters
        beyond ``seed``.
    """

    rule_scopes: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(RULE_SCOPES)
    )
    task_param_baseline: Mapping[str, frozenset[str]] = field(
        default_factory=lambda: dict(TASK_PARAM_BASELINE)
    )


#: The configuration ``repro lint`` runs with.
DEFAULT_CONFIG = LintConfig()
