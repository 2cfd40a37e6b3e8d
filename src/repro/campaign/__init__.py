"""Declarative experiment campaigns: spec, loader, runner, validator.

A campaign file (YAML or JSON) declares a whole experiment matrix —
figures, knob settings, seed grids, sweeps, analysis settings — and this
package compiles it onto the existing runner stack:

* :mod:`repro.campaign.spec` — the frozen :class:`CampaignSpec` /
  :class:`StageSpec` dataclasses and their content keys.
* :mod:`repro.campaign.loader` — strict parsing of campaign files
  (:func:`load_campaign`), with sweep and seed-grid expansion.
* :mod:`repro.campaign.run` — :func:`run_campaign`: dedupe, fan out via
  :class:`~repro.runner.executor.ParallelExecutor`, aggregate cells, and
  write the ``manifest.json`` / ``results.json`` run artifacts.
* :mod:`repro.campaign.validate` — :func:`validate_run`: check a run
  directory's manifest against the installed package and its results.

The CLI surface is ``repro run campaign.yaml`` and ``repro validate
RUNDIR``; the library surface is re-exported through :mod:`repro.api`.
"""

from repro.campaign.loader import CampaignError, load_campaign, parse_campaign
from repro.campaign.run import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    RESULTS_NAME,
    ArmResult,
    CampaignResult,
    confidence_half_width,
    run_campaign,
    write_run_dir,
)
from repro.campaign.spec import (
    AnalysisSettings,
    CampaignArm,
    CampaignSpec,
    StageSpec,
    figure_is_seeded,
    figure_knobs,
)
from repro.campaign.validate import ValidationReport, validate_run

__all__ = [
    "AnalysisSettings",
    "ArmResult",
    "CampaignArm",
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "RESULTS_NAME",
    "StageSpec",
    "ValidationReport",
    "confidence_half_width",
    "figure_is_seeded",
    "figure_knobs",
    "load_campaign",
    "parse_campaign",
    "run_campaign",
    "validate_run",
    "write_run_dir",
]
