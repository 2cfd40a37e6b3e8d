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

* ``LAYERS`` — the package's layers from bottom to top (LAY001).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

__all__ = [
    "LintConfig",
    "DEFAULT_CONFIG",
    "RULE_SCOPES",
    "TASK_PARAM_BASELINE",
    "LAYERS",
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

#: The package's layers, bottom to top, each a tuple of module prefixes
#: (LAY001).  A module may import its own layer and those below it.  It
#: belongs to the layer of its longest matching prefix, so the root entry
#: ``repro`` also holds any package no other entry lists; a test requires
#: every package to be listed.
LAYERS: tuple[tuple[str, ...], ...] = (
    ("repro", "repro.core", "repro.obs", "repro.reporting", "repro.devtools"),
    ("repro.runner",),
    ("repro.workload",),
    ("repro.netsim",),
    ("repro.experiments",),
    ("repro.campaign",),
    ("repro.api", "repro.cli", "repro.__main__"),
)

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
    "workload.baseline_table": frozenset({"config", "days"}),
    "workload.experiment_table": frozenset({"config", "design", "days"}),
    "workload.aa_table": frozenset({"config", "days"}),
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
