"""Parse declarative campaign files (YAML/JSON) into frozen specs.

The on-disk format is a small, strict mapping::

    campaign: quick-smoke          # optional; defaults to the file stem
    description: one-line intent   # optional
    analysis:
      confidence: 0.95             # optional
    defaults:                      # applied to every stage; stage wins
      quick: true
      replications: 2
    stages:
      - figure: fig2a              # required; a registered figure name
        name: connections          # optional; defaults to the figure
        noise: 0.05                # lab figures only
        seeds: [0, 1, 2]           # or replications: N (+ base_seed: B)
      - figure: topo_churn
        sweep:                     # cross-product → one stage per combo
          quick: [true, false]

Unknown keys are rejected at every level — a typo must fail the load,
not silently drop a knob.  Inapplicable knobs are an error when set on a
stage but are dropped when they arrive via ``defaults`` (so one
``defaults: {quick: true}`` can cover a mixed lab/topology campaign).
Deterministic figures check their seed settings, then ignore them;
their stages compile to a single seed-free arm regardless of
``replications``.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

from repro.campaign.spec import (
    AnalysisSettings,
    CampaignSpec,
    StageSpec,
    figure_is_seeded,
    figure_knobs,
)
from repro.experiments.figures import KNOBS, figures, parse_knob

__all__ = ["CampaignError", "load_campaign", "parse_campaign"]

_TOP_KEYS = frozenset({"campaign", "description", "analysis", "defaults", "stages"})
_ANALYSIS_KEYS = frozenset({"confidence"})
_KNOB_KEYS = frozenset(KNOBS)
_SEED_KEYS = frozenset({"seeds", "replications", "base_seed"})
_STAGE_KEYS = frozenset({"figure", "name", "sweep"}) | _KNOB_KEYS | _SEED_KEYS
_DEFAULT_KEYS = _KNOB_KEYS | _SEED_KEYS


class CampaignError(ValueError):
    """A campaign file is malformed or inconsistent."""


def load_campaign(path: str | Path) -> CampaignSpec:
    """Load and validate a campaign file (``.yaml``/``.yml`` or ``.json``).

    YAML support requires PyYAML; JSON campaigns always work.  The file
    stem names the campaign unless it sets ``campaign:`` itself.
    """
    path = Path(path)
    if not path.is_file():
        raise CampaignError(f"campaign file not found: {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"{path}: invalid JSON: {exc}") from exc
    elif path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - PyYAML is baked in
            raise CampaignError(
                f"{path}: reading YAML campaigns requires PyYAML; "
                "install it or use a .json campaign file"
            ) from exc
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise CampaignError(f"{path}: invalid YAML: {exc}") from exc
    else:
        raise CampaignError(
            f"{path}: unsupported campaign suffix {path.suffix!r} "
            "(expected .yaml, .yml or .json)"
        )
    try:
        return parse_campaign(data, default_name=path.stem)
    except CampaignError as exc:
        raise CampaignError(f"{path}: {exc}") from None


def parse_campaign(data: Any, default_name: str = "campaign") -> CampaignSpec:
    """Validate an already-parsed campaign mapping into a :class:`CampaignSpec`."""
    if not isinstance(data, Mapping):
        raise CampaignError(
            f"campaign document must be a mapping, got {type(data).__name__}"
        )
    _reject_unknown(data, _TOP_KEYS, "campaign")
    name = _require_str(data.get("campaign", default_name), "campaign")
    description = _require_str(data.get("description", ""), "description")
    analysis = _parse_analysis(data.get("analysis", {}))
    defaults = _parse_defaults(data.get("defaults", {}))

    raw_stages = data.get("stages")
    if not isinstance(raw_stages, Sequence) or isinstance(raw_stages, (str, bytes)):
        raise CampaignError("'stages' must be a non-empty list of stage mappings")
    if not raw_stages:
        raise CampaignError("'stages' must be a non-empty list of stage mappings")

    stages: list[StageSpec] = []
    for index, raw in enumerate(raw_stages):
        stages.extend(_parse_stage(raw, index, defaults))
    try:
        return CampaignSpec(
            name=name, description=description, stages=tuple(stages), analysis=analysis
        )
    except ValueError as exc:
        raise CampaignError(str(exc)) from None


def _reject_unknown(mapping: Mapping[str, Any], allowed: frozenset[str], where: str) -> None:
    """Fail loudly on keys outside ``allowed`` (typos must not be inert)."""
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise CampaignError(
            f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _require_str(value: Any, where: str) -> str:
    """Type-check a string-valued field."""
    if not isinstance(value, str):
        raise CampaignError(f"{where}: expected a string, got {value!r}")
    return value


def _parse_analysis(raw: Any) -> AnalysisSettings:
    """Validate the ``analysis:`` section."""
    if not isinstance(raw, Mapping):
        raise CampaignError(f"analysis: expected a mapping, got {raw!r}")
    _reject_unknown(raw, _ANALYSIS_KEYS, "analysis")
    confidence = raw.get("confidence", 0.95)
    if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
        raise CampaignError(f"analysis.confidence: expected a number, got {confidence!r}")
    try:
        return AnalysisSettings(confidence=float(confidence))
    except ValueError as exc:
        raise CampaignError(str(exc)) from None


def _parse_defaults(raw: Any) -> dict[str, Any]:
    """Validate the ``defaults:`` section (values checked when applied)."""
    if not isinstance(raw, Mapping):
        raise CampaignError(f"defaults: expected a mapping, got {raw!r}")
    _reject_unknown(raw, _DEFAULT_KEYS, "defaults")
    return dict(raw)


def _parse_stage(raw: Any, index: int, defaults: Mapping[str, Any]) -> list[StageSpec]:
    """Expand one stage entry (including its ``sweep:``) into stage specs."""
    where = f"stages[{index}]"
    if not isinstance(raw, Mapping):
        raise CampaignError(f"{where}: expected a mapping, got {raw!r}")
    _reject_unknown(raw, _STAGE_KEYS, where)
    figure = raw.get("figure")
    if not isinstance(figure, str) or not figure:
        raise CampaignError(f"{where}: 'figure' is required and must be a string")
    if figure not in figures():
        raise CampaignError(f"{where}: unknown figure {figure!r}; choose one of {list(figures())}")
    where = f"stages[{index}] ({figure})"
    base_name = raw.get("name", figure)
    base_name = _require_str(base_name, f"{where}.name")

    allowed = figure_knobs(figure)
    knobs: dict[str, Any] = {}
    for knob in sorted(allowed & set(defaults)):
        knobs[knob] = _check_knob(knob, defaults[knob], f"defaults.{knob}")
    for knob in sorted(_KNOB_KEYS & set(raw)):
        if knob not in allowed:
            raise CampaignError(
                f"{where}: knob {knob!r} does not apply to figure {figure!r} "
                f"(allowed: {sorted(allowed)})"
            )
        knobs[knob] = _check_knob(knob, raw[knob], f"{where}.{knob}")

    seeds = _parse_seed_grid(raw, defaults, where)
    if not figure_is_seeded(figure):
        # Replications of a pure function are a single cache entry.
        seeds = ()

    sweep = raw.get("sweep", {})
    if not isinstance(sweep, Mapping):
        raise CampaignError(f"{where}.sweep: expected a mapping, got {sweep!r}")
    if not sweep:
        return [_make_stage(base_name, figure, knobs, seeds, where)]

    _reject_unknown(sweep, _KNOB_KEYS, f"{where}.sweep")
    for knob in sweep:
        if knob not in allowed:
            raise CampaignError(
                f"{where}.sweep: knob {knob!r} does not apply to figure {figure!r}"
            )
        if knob in raw:
            raise CampaignError(
                f"{where}: knob {knob!r} is both fixed and swept; pick one"
            )
    combos: list[dict[str, Any]] = [{}]
    for knob in sorted(sweep):
        values = sweep[knob]
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise CampaignError(
                f"{where}.sweep.{knob}: expected a list of values, got {values!r}"
            )
        if not values:
            raise CampaignError(f"{where}.sweep.{knob}: empty value list")
        checked = [
            _check_knob(knob, value, f"{where}.sweep.{knob}") for value in values
        ]
        combos = [
            {**combo, knob: value} for combo in combos for value in checked
        ]
    stages = []
    for combo in combos:
        suffix = ",".join(f"{k}={_format_value(v)}" for k, v in sorted(combo.items()))
        stages.append(
            _make_stage(
                f"{base_name}[{suffix}]", figure, {**knobs, **combo}, seeds, where
            )
        )
    return stages


def _make_stage(
    name: str,
    figure: str,
    knobs: Mapping[str, Any],
    seeds: tuple[int, ...],
    where: str,
) -> StageSpec:
    """Construct a :class:`StageSpec`, mapping ValueError to CampaignError."""
    try:
        return StageSpec(name=name, figure=figure, knobs=dict(knobs), seeds=seeds)
    except ValueError as exc:
        raise CampaignError(f"{where}: {exc}") from None


def _parse_seed_grid(
    raw: Mapping[str, Any],
    defaults: Mapping[str, Any],
    where: str,
) -> tuple[int, ...]:
    """Resolve ``seeds`` / ``replications`` + ``base_seed`` into a grid.

    Stage-level settings override ``defaults``.
    """
    if "seeds" in raw and "replications" in raw:
        raise CampaignError(f"{where}: give either 'seeds' or 'replications', not both")
    source: Mapping[str, Any] = raw if ("seeds" in raw or "replications" in raw) else defaults
    seeds = source.get("seeds")
    replications = source.get("replications")
    base_seed = raw.get("base_seed", defaults.get("base_seed", 0))
    base_seed = _check_seed(base_seed, f"{where}.base_seed")
    if seeds is not None and replications is not None:
        raise CampaignError(
            f"{where}: give either 'seeds' or 'replications' in defaults, not both"
        )
    if seeds is not None:
        if not isinstance(seeds, Sequence) or isinstance(seeds, (str, bytes)):
            raise CampaignError(f"{where}.seeds: expected a list of ints, got {seeds!r}")
        return tuple(_check_seed(s, f"{where}.seeds") for s in seeds)
    if replications is not None:
        count = _check_int(replications, f"{where}.replications")
        if count < 1:
            raise CampaignError(f"{where}.replications: must be >= 1, got {count}")
        return tuple(range(base_seed, base_seed + count))
    return (base_seed,)


def _check_knob(knob: str, value: Any, where: str) -> Any:
    """Type-check one knob value, mapping its error to :class:`CampaignError`."""
    try:
        return parse_knob(knob, value)
    except ValueError as exc:
        raise CampaignError(f"{where}: {exc}") from None


def _check_int(value: Any, where: str) -> int:
    """Type-check an integer field (bools are not ints here)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise CampaignError(f"{where}: expected an integer, got {value!r}")
    return value


def _check_seed(value: Any, where: str) -> int:
    """Type-check a seed: a non-negative integer, as numpy's generators need."""
    seed = _check_int(value, where)
    if seed < 0:
        raise CampaignError(f"{where}: seeds must be >= 0, got {seed}")
    return seed


def _format_value(value: Any) -> str:
    """Render a swept knob value for a stage-name suffix."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
