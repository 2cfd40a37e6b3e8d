"""Integrity checks for a campaign run directory.

:func:`validate_run` checks a run's ``manifest.json`` against the
installed package and the ``results.json`` artifact next to it: every
arm's content key must recompute to the pinned value, every arm must
have results (and nothing else may), cells must be finite and agree in
shape across a stage's replications, and the manifest's own campaign
key must match the campaign it describes.  Checks degrade gracefully —
a version drift is reported once and key recomputation (which embeds
the version) is skipped rather than producing one spurious mismatch per
arm.

The return value is a :class:`ValidationReport`; an empty ``problems``
tuple means the run directory is internally consistent and its content
keys recompute under the installed package version.  No arm is executed
again, so a result altered after the run passes as long as its cells
stay finite and keep their shape.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.campaign.run import MANIFEST_NAME, MANIFEST_SCHEMA, RESULTS_NAME
from repro.campaign.spec import (
    AnalysisSettings,
    CampaignSpec,
    StageSpec,
)
from repro.runner.spec import ScenarioSpec, content_key

__all__ = ["ValidationReport", "validate_run"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one run directory.

    Attributes
    ----------
    rundir:
        The directory that was checked.
    problems:
        Human-readable findings; empty means the run validates.
    arms:
        Number of arms pinned by the manifest (0 if unreadable).
    unique_arms:
        Number of distinct content keys among those arms.
    stages:
        Number of stages the manifest describes.
    """

    rundir: Path
    problems: tuple[str, ...]
    arms: int = 0
    unique_arms: int = 0
    stages: int = 0

    @property
    def ok(self) -> bool:
        """True when no problems were found."""
        return not self.problems

    def summary_lines(self) -> list[str]:
        """Deterministic report: verdict line plus one line per problem."""
        if self.ok:
            return [
                f"{self.rundir}: OK "
                f"({self.stages} stages, {self.arms} arms, "
                f"{self.unique_arms} unique)"
            ]
        lines = [f"{self.rundir}: FAILED ({len(self.problems)} problem(s))"]
        lines.extend(f"  - {problem}" for problem in self.problems)
        return lines


def validate_run(
    rundir: str | Path, campaign: CampaignSpec | None = None
) -> ValidationReport:
    """Check a run directory's manifest and results for consistency.

    When ``campaign`` is given (e.g. the freshly loaded campaign file),
    the manifest must additionally match its content key — catching a
    run directory produced by a since-edited campaign.
    """
    rundir = Path(rundir)
    problems: list[str] = []
    if not rundir.is_dir():
        return ValidationReport(rundir=rundir, problems=(f"not a directory: {rundir}",))

    manifest = _load_json(rundir / MANIFEST_NAME, problems)
    if manifest is None:
        return ValidationReport(rundir=rundir, problems=tuple(problems))

    drift = _check_header(manifest, problems)
    stages = _check_stages(manifest, problems)
    arms = _check_arms(manifest, stages, drift, problems)
    if campaign is not None:
        manifest_key = _campaign_key(manifest)
        if manifest_key != campaign.content_key():
            problems.append(
                "campaign mismatch: the given campaign's content key "
                f"{campaign.content_key()[:12]}… does not match the manifest's "
                f"{str(manifest_key)[:12]}…"
            )
    _check_results(rundir, manifest, arms, stages, problems)
    _check_meta(rundir, problems)

    return ValidationReport(
        rundir=rundir,
        problems=tuple(problems),
        arms=len(arms),
        unique_arms=len({arm.get("key") for arm in arms if isinstance(arm, Mapping)}),
        stages=len(stages),
    )


def _load_json(path: Path, problems: list[str]) -> Any | None:
    """Read one artifact; record a problem and return None on failure."""
    if not path.is_file():
        problems.append(f"missing artifact: {path.name}")
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError) as exc:
        problems.append(f"unreadable artifact {path.name}: {exc}")
        return None


def _campaign_key(manifest: Any) -> Any:
    """The campaign content key pinned by the manifest (or None)."""
    campaign = manifest.get("campaign") if isinstance(manifest, Mapping) else None
    if isinstance(campaign, Mapping):
        return campaign.get("key")
    return None


def _check_header(manifest: Any, problems: list[str]) -> bool:
    """Validate schema/package/version; returns True on version drift."""
    if not isinstance(manifest, Mapping):
        problems.append("manifest.json: expected a mapping")
        return True
    if manifest.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"manifest.json: schema {manifest.get('schema')!r} != {MANIFEST_SCHEMA}"
        )
    if manifest.get("package") != "repro":
        problems.append(f"manifest.json: package {manifest.get('package')!r} != 'repro'")
    from repro import __version__

    version = manifest.get("version")
    if version != __version__:
        problems.append(
            f"version drift: manifest was written by {version!r}, "
            f"installed is {__version__!r} (content keys not recomputed)"
        )
        return True
    return False


def _check_stages(manifest: Any, problems: list[str]) -> list[Mapping[str, Any]]:
    """Validate the manifest's stage list; returns the readable stages."""
    campaign = manifest.get("campaign") if isinstance(manifest, Mapping) else None
    if not isinstance(campaign, Mapping):
        problems.append("manifest.json: missing 'campaign' section")
        return []
    raw_stages = campaign.get("stages")
    if not isinstance(raw_stages, list) or not raw_stages:
        problems.append("manifest.json: campaign.stages must be a non-empty list")
        return []
    stages: list[Mapping[str, Any]] = []
    for index, stage in enumerate(raw_stages):
        if not isinstance(stage, Mapping) or not isinstance(stage.get("name"), str):
            problems.append(f"manifest.json: campaign.stages[{index}] is malformed")
            continue
        stages.append(stage)
    # The pinned campaign key must recompute from the pinned stages (it
    # embeds the version, so this is only meaningful without drift).
    try:
        rebuilt = CampaignSpec(
            name=str(campaign.get("name", "")),
            description=str(campaign.get("description", "")),
            stages=tuple(
                StageSpec(
                    name=stage["name"],
                    figure=str(stage.get("figure", "")),
                    knobs=dict(stage.get("knobs", {})),
                    seeds=tuple(stage.get("seeds", ())),
                )
                for stage in stages
            ),
            analysis=AnalysisSettings(
                confidence=float(
                    (campaign.get("analysis") or {}).get("confidence", 0.95)
                )
            ),
        )
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"manifest.json: campaign does not rebuild: {exc}")
        return stages
    from repro import __version__

    if manifest.get("version") == __version__ and rebuilt.content_key() != campaign.get(
        "key"
    ):
        problems.append(
            "campaign key mismatch: manifest pins "
            f"{str(campaign.get('key'))[:12]}… but the pinned stages recompute to "
            f"{rebuilt.content_key()[:12]}…"
        )
    return stages


def _check_arms(
    manifest: Any,
    stages: list[Mapping[str, Any]],
    drift: bool,
    problems: list[str],
) -> list[Mapping[str, Any]]:
    """Validate the manifest's arm list; returns the readable arms."""
    raw_arms = manifest.get("arms") if isinstance(manifest, Mapping) else None
    if not isinstance(raw_arms, list) or not raw_arms:
        problems.append("manifest.json: arms must be a non-empty list")
        return []
    arms: list[Mapping[str, Any]] = []
    seen: set[tuple[str, Any]] = set()
    for index, arm in enumerate(raw_arms):
        if not isinstance(arm, Mapping):
            problems.append(f"manifest.json: arms[{index}] is not a mapping")
            continue
        missing = [
            field
            for field in ("stage", "figure", "task", "params", "key")
            if field not in arm
        ]
        if missing:
            problems.append(f"manifest.json: arms[{index}] lacks {missing}")
            continue
        arms.append(arm)
        ident = (str(arm["stage"]), arm.get("seed"))
        if ident in seen:
            problems.append(
                f"duplicate arm: stage {arm['stage']!r}, seed {arm.get('seed')!r}"
            )
        seen.add(ident)
        if not drift:
            spec = ScenarioSpec(
                task=str(arm["task"]),
                params=dict(arm["params"]),
                seed=arm.get("seed"),
                label=str(arm.get("label", "")),
            )
            if content_key(spec) != arm["key"]:
                problems.append(
                    f"arm key mismatch: {arm.get('label') or arm['stage']!r} pins "
                    f"{str(arm['key'])[:12]}… but recomputes to "
                    f"{content_key(spec)[:12]}…"
                )

    # Seed-grid agreement: each stage's arms must cover exactly its seeds.
    arms_by_stage: dict[str, list[Mapping[str, Any]]] = {}
    for arm in arms:
        arms_by_stage.setdefault(str(arm["stage"]), []).append(arm)
    for stage in stages:
        name = str(stage["name"])
        expected = list(stage.get("seeds", ()))
        got = [arm.get("seed") for arm in arms_by_stage.pop(name, [])]
        if not expected:
            expected = [None]
        if sorted(got, key=repr) != sorted(expected, key=repr):
            problems.append(
                f"seed mismatch in stage {name!r}: manifest stages pin "
                f"{expected} but arms cover {got}"
            )
    for name in sorted(arms_by_stage):
        problems.append(f"arms reference unknown stage {name!r}")
    return arms


def _check_results(
    rundir: Path,
    manifest: Any,
    arms: list[Mapping[str, Any]],
    stages: list[Mapping[str, Any]],
    problems: list[str],
) -> None:
    """Validate results.json against the manifest's arms."""
    results = _load_json(rundir / RESULTS_NAME, problems)
    if results is None:
        return
    if not isinstance(results, Mapping):
        problems.append("results.json: expected a mapping")
        return
    if results.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"results.json: schema {results.get('schema')!r} != {MANIFEST_SCHEMA}"
        )
    if results.get("campaign_key") != _campaign_key(manifest):
        problems.append("results.json: campaign_key does not match manifest.json")
    cells_by_key = results.get("cells")
    if not isinstance(cells_by_key, Mapping):
        problems.append("results.json: 'cells' must be a mapping keyed by content key")
        return

    arm_keys = {str(arm["key"]) for arm in arms}
    for key in sorted(arm_keys - set(cells_by_key)):
        problems.append(f"missing arm result: no cells for key {key[:12]}…")
    for key in sorted(set(cells_by_key) - arm_keys):
        problems.append(f"unreferenced result: cells for unknown key {key[:12]}…")

    for key in sorted(arm_keys & set(cells_by_key)):
        cells = cells_by_key[key]
        if not isinstance(cells, Mapping) or not cells:
            problems.append(f"results.json: cells for {key[:12]}… must be a non-empty mapping")
            continue
        for name, value in cells.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problems.append(
                    f"non-numeric cell {name!r} in {key[:12]}…: {value!r}"
                )
            elif not math.isfinite(value):
                problems.append(f"non-finite cell {name!r} in {key[:12]}…: {value!r}")

    # Replications of one stage must agree on the cell-name set.
    for stage in stages:
        name = str(stage["name"])
        shapes = {
            tuple(sorted(cells_by_key[str(arm["key"])]))
            for arm in arms
            if str(arm["stage"]) == name
            and str(arm["key"]) in cells_by_key
            and isinstance(cells_by_key[str(arm["key"])], Mapping)
        }
        if len(shapes) > 1:
            problems.append(
                f"cell-set mismatch within stage {name!r}: replications "
                "disagree on which cells exist"
            )


def _check_meta(rundir: Path, problems: list[str]) -> None:
    """Sanity-check the tracer's meta.json when present (it is optional)."""
    path = rundir / "meta.json"
    if not path.is_file():
        return
    meta = _load_json(path, problems)
    if not isinstance(meta, Mapping):
        problems.append("meta.json: expected a mapping")
        return
    for counter in ("tasks", "cache_hits", "cache_misses"):
        value = meta.get(counter)
        if value is not None and (not isinstance(value, int) or value < 0):
            problems.append(f"meta.json: counter {counter!r} is not a non-negative int")
