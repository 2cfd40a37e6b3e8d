"""Execute a compiled campaign and persist its run directory.

:func:`run_campaign` lowers a :class:`~repro.campaign.spec.CampaignSpec`
onto the existing runner stack: compile every stage into content-keyed
arms, dedupe arms that share a key (identical computations run once, no
matter how many stages reference them), fan the unique specs out through
:class:`~repro.runner.executor.ParallelExecutor`, and fold the results
back into per-stage aggregates.  Because each arm carries its own seed,
the output is bit-identical for any ``jobs`` value.

A run directory (``--trace RUN``) receives two JSON artifacts next to
the tracer's ``trace.jsonl``/``meta.json``:

``manifest.json``
    Provenance: package version, campaign content key, the resolved
    stages, and one entry per arm pinning its task, parameters, seed and
    content key.  ``repro validate`` replays this manifest.
``results.json``
    The scalar cells of every unique arm, keyed by content key.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np
from scipy import special

from repro.campaign.spec import CampaignArm, CampaignSpec
from repro.runner.cache import ResultCache
from repro.runner.executor import ParallelExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RunTracer, TaskRun

__all__ = [
    "ArmResult",
    "CampaignResult",
    "run_campaign",
    "write_run_dir",
    "confidence_half_width",
    "MANIFEST_NAME",
    "RESULTS_NAME",
    "MANIFEST_SCHEMA",
]

#: File names of the run-directory artifacts.
MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.json"

#: Schema version stamped into (and required of) both artifacts.
MANIFEST_SCHEMA = 1


def confidence_half_width(values: np.ndarray, confidence: float = 0.95) -> float:
    """Half-width of the t-based CI on the mean of ``values``.

    Raises :class:`ValueError` for a ``confidence`` outside (0, 1).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    n = len(values)
    if n < 2:
        return 0.0
    std = float(np.std(values, ddof=1))
    return float(special.stdtrit(n - 1, 0.5 + confidence / 2.0) * std / np.sqrt(n))


@dataclass(frozen=True)
class ArmResult:
    """One arm's provenance plus its computed cells.

    Attributes
    ----------
    stage:
        Stage the arm belongs to.
    figure:
        The stage's figure.
    seed:
        The arm's seed (``None`` for deterministic figures).
    label:
        The compiled spec's label.
    key:
        The arm's content key (shared with the cache and the manifest).
    cells:
        Flat ``{cell name: value}`` mapping of scalar outcomes.
    """

    stage: str
    figure: str
    seed: int | None
    label: str
    key: str
    cells: Mapping[str, float]


@dataclass(frozen=True)
class CampaignResult:
    """Everything one campaign run produced.

    Attributes
    ----------
    campaign:
        The spec that was run.
    arms:
        Per-arm results in compilation order (stage order, then seed).
    unique_arms:
        Number of distinct content keys actually executed or fetched.
    cache_hits / cache_misses:
        Cache traffic attributable to this run (0/0 without a cache).
    """

    campaign: CampaignSpec
    arms: tuple[ArmResult, ...]
    unique_arms: int
    cache_hits: int
    cache_misses: int

    def stage_arms(self, stage: str) -> tuple[ArmResult, ...]:
        """The results of one stage, in seed order."""
        return tuple(arm for arm in self.arms if arm.stage == stage)

    def summary_lines(self) -> list[str]:
        """Deterministic human-readable report: per-stage cell aggregates.

        For seeded stages with more than one replication each cell shows
        ``mean ±half-width`` at the campaign's confidence level; single
        arms show the bare value.
        """
        spec = self.campaign
        lines = [f"campaign {spec.name}: {spec.description}".rstrip().rstrip(":")]
        lines.append(
            f"stages: {len(spec.stages)}, arms: {len(self.arms)}, "
            f"unique: {self.unique_arms}"
        )
        for stage in spec.stages:
            arms = self.stage_arms(stage.name)
            if stage.deterministic:
                grid = "deterministic"
            else:
                grid = f"seeds {','.join(str(s) for s in stage.seeds)}"
            lines.append("")
            lines.append(f"{stage.name} (figure {stage.figure}, {grid})")
            cell_names = sorted(arms[0].cells)
            width = max(len(name) for name in cell_names)
            for cell in cell_names:
                values = np.array([float(arm.cells[cell]) for arm in arms])
                mean = float(np.mean(values))
                if len(values) > 1:
                    half = confidence_half_width(
                        values, self.campaign.analysis.confidence
                    )
                    lines.append(
                        f"  {cell:<{width}}  {mean:>14.6g} ±{half:.4g} (n={len(values)})"
                    )
                else:
                    lines.append(f"  {cell:<{width}}  {mean:>14.6g}")
        return lines


def run_campaign(
    campaign: CampaignSpec,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    tracer: RunTracer | None = None,
    profile: bool = False,
    on_task_done: Callable[[int, int, TaskRun], None] | None = None,
    rundir: str | Path | None = None,
) -> CampaignResult:
    """Run every arm of ``campaign`` and return the folded results.

    Arms sharing a content key are executed once and fanned back out to
    every referencing stage.  When ``rundir`` is given, ``manifest.json``
    and ``results.json`` are written there (the directory is created).
    """
    arms = campaign.arms()
    unique: dict[str, CampaignArm] = {}
    for arm in arms:
        unique.setdefault(arm.key, arm)

    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    executor = ParallelExecutor(
        jobs=jobs,
        cache=cache,
        tracer=tracer,
        profile=profile,
        on_task_done=on_task_done,
    )
    outputs = executor.map([arm.spec for arm in unique.values()])
    cells_by_key = {
        key: _normalize_cells(value, unique[key])
        for key, value in zip(unique, outputs)
    }

    arm_results = tuple(
        ArmResult(
            stage=arm.stage,
            figure=arm.figure,
            seed=arm.seed,
            label=arm.spec.label,
            key=arm.key,
            cells=cells_by_key[arm.key],
        )
        for arm in arms
    )
    result = CampaignResult(
        campaign=campaign,
        arms=arm_results,
        unique_arms=len(unique),
        cache_hits=(cache.hits - hits_before) if cache is not None else 0,
        cache_misses=(cache.misses - misses_before) if cache is not None else 0,
    )
    if rundir is not None:
        write_run_dir(rundir, result)
    return result


def _normalize_cells(value: Any, arm: CampaignArm) -> dict[str, float]:
    """Coerce a ``figure.cells`` payload to plain finite-checkable floats."""
    if not isinstance(value, Mapping):
        raise TypeError(
            f"arm {arm.spec.label!r} returned {type(value).__name__}, "
            "expected a cell mapping"
        )
    cells: dict[str, float] = {}
    for name, raw in value.items():
        number = float(raw)
        if not math.isfinite(number):
            raise ValueError(
                f"arm {arm.spec.label!r} produced non-finite cell {name!r}: {raw!r}"
            )
        cells[str(name)] = number
    return cells


def write_run_dir(rundir: str | Path, result: CampaignResult) -> Path:
    """Write ``manifest.json`` and ``results.json`` into ``rundir``."""
    from repro import __version__

    rundir = Path(rundir)
    rundir.mkdir(parents=True, exist_ok=True)
    campaign = result.campaign
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "package": "repro",
        "version": __version__,
        "campaign": {
            "name": campaign.name,
            "description": campaign.description,
            "key": campaign.content_key(),
            "analysis": {"confidence": campaign.analysis.confidence},
            "stages": [
                {
                    "name": stage.name,
                    "figure": stage.figure,
                    "knobs": dict(sorted(stage.knobs.items())),
                    "seeds": list(stage.seeds),
                }
                for stage in campaign.stages
            ],
        },
        "arms": [
            {
                "stage": arm.stage,
                "figure": arm.figure,
                "seed": arm.seed,
                "label": arm.label,
                "task": compiled.spec.task,
                "params": dict(sorted(compiled.spec.params.items())),
                "key": arm.key,
            }
            for arm, compiled in zip(result.arms, campaign.arms(), strict=True)
        ],
    }
    results = {
        "schema": MANIFEST_SCHEMA,
        "campaign_key": manifest["campaign"]["key"],
        "cells": {
            arm.key: dict(sorted(arm.cells.items())) for arm in result.arms
        },
    }
    _write_json(rundir / MANIFEST_NAME, manifest)
    _write_json(rundir / RESULTS_NAME, results)
    return rundir


def _write_json(path: Path, payload: Any) -> None:
    """Serialize one artifact deterministically (sorted keys, UTF-8)."""
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
