"""Stable Python API facade for driving reproductions programmatically.

Everything a script needs to load, run and validate campaigns without
reaching into submodules::

    from repro import api

    campaign = api.load_campaign("examples/campaign_quick.yaml")
    result = api.run_campaign(campaign, jobs=4, cache=api.ResultCache())
    report = api.validate_run("RUN")

The facade re-exports the frozen spec types (:class:`CampaignSpec`,
:class:`StageSpec`, :class:`ScenarioSpec`, ...) and the runner
primitives they lower onto, plus :func:`list_figures` and
:func:`figure_spec` for discovering figures and building their arms.
Import from here rather than from the implementation modules: these
names are the package's compatibility surface.
"""

from __future__ import annotations

from repro.campaign.loader import CampaignError, load_campaign, parse_campaign
from repro.campaign.run import (
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
from repro.experiments.figures import figure_spec, figures
from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.executor import ParallelExecutor
from repro.runner.spec import ScenarioSpec, canonical, content_key

__all__ = [
    "AnalysisSettings",
    "ArmResult",
    "CampaignArm",
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "ParallelExecutor",
    "ResultCache",
    "ScenarioSpec",
    "StageSpec",
    "ValidationReport",
    "canonical",
    "confidence_half_width",
    "content_key",
    "default_cache_dir",
    "figure_is_seeded",
    "figure_knobs",
    "figure_spec",
    "list_figures",
    "load_campaign",
    "parse_campaign",
    "run_campaign",
    "validate_run",
    "write_run_dir",
]


def list_figures() -> tuple[str, ...]:
    """The registered figure names, in the order ``repro list`` shows them."""
    return tuple(figures())
