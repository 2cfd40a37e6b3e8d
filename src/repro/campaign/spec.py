"""Frozen campaign specifications: stages, seed grids, analysis knobs.

A campaign is the declarative description of a whole experiment matrix —
which figures to run, at which knob settings, over which seed grids, and
how to aggregate the result cells.  :class:`CampaignSpec` and
:class:`StageSpec` are frozen dataclasses so campaigns are content-keyed
the same way single arms are: two campaigns with equal canonical forms
are the same computation, and every compiled arm reuses the runner's
:func:`~repro.runner.spec.content_key` so results dedupe across stages
and across campaigns through the on-disk cache.

The compilation target is the ``figure.cells`` task, through the figure
registry's spec builder (:func:`repro.experiments.figures.figure_spec`):
a stage lowers to one :class:`~repro.runner.spec.ScenarioSpec` per seed,
with deterministic figures collapsing to a single seed-free arm.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.experiments.figures import figure_spec, get_figure
from repro.runner.spec import ScenarioSpec, canonical, content_key

__all__ = [
    "AnalysisSettings",
    "StageSpec",
    "CampaignSpec",
    "CampaignArm",
    "figure_knobs",
    "figure_is_seeded",
]


def figure_knobs(figure: str) -> frozenset[str]:
    """The knob names that apply to (and key) one figure's arms.

    Keeping inapplicable knobs out of a stage keeps them out of the
    content keys, so an inert knob can never split the cache.
    """
    return frozenset({get_figure(figure).knob})


def figure_is_seeded(figure: str) -> bool:
    """Whether the figure consumes the seed (False ⇒ one seed-free arm)."""
    return get_figure(figure).seeded


@dataclass(frozen=True)
class AnalysisSettings:
    """Campaign-level analysis knobs applied when aggregating cells.

    Attributes
    ----------
    confidence:
        Confidence level of the t-based interval reported per cell
        across seed replications (default 0.95).
    """

    confidence: float = 0.95

    def __post_init__(self) -> None:
        """Reject confidence levels outside the open unit interval."""
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"analysis confidence must be in (0, 1), got {self.confidence!r}"
            )


@dataclass(frozen=True)
class StageSpec:
    """One stage of a campaign: a figure at fixed knobs over a seed grid.

    Attributes
    ----------
    name:
        Unique stage name inside the campaign (defaults to the figure
        name in the loader; sweep expansion suffixes ``[knob=value]``).
    figure:
        A registered figure name (a key of
        :func:`repro.experiments.figures.figures`).
    knobs:
        Figure-applicable knob settings (the figure's
        :attr:`~repro.experiments.figures.Figure.knob`).  Canonicalized,
        never mutated.
    seeds:
        Seed grid; one arm per seed.  Empty for deterministic figures,
        which compile to a single seed-free arm.
    """

    name: str
    figure: str
    # Mapping default is deliberate: knobs are canonicalised (sorted) by
    # the content key, never hashed via __hash__ and never mutated.
    knobs: Mapping[str, Any] = field(default_factory=dict)  # repro-lint: disable=KEY001
    seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        """Validate knob applicability and the seed grid shape."""
        try:
            get_figure(self.figure).check_knobs(self.knobs)
        except ValueError as exc:
            raise ValueError(f"stage {self.name!r}: {exc}") from None
        if figure_is_seeded(self.figure):
            if not self.seeds:
                raise ValueError(
                    f"stage {self.name!r}: figure {self.figure!r} consumes the "
                    "seed; provide a non-empty seed grid"
                )
            if len(set(self.seeds)) != len(self.seeds):
                raise ValueError(
                    f"stage {self.name!r}: duplicate seeds in {self.seeds!r}"
                )
        elif self.seeds:
            raise ValueError(
                f"stage {self.name!r}: figure {self.figure!r} is deterministic; "
                "seeds have no effect (the loader collapses them — leave empty)"
            )

    @property
    def deterministic(self) -> bool:
        """Whether this stage compiles to a single seed-free arm."""
        return not figure_is_seeded(self.figure)

    def arms(self) -> tuple[ScenarioSpec, ...]:
        """Lower this stage onto runner specs, one per seed."""
        knobs = dict(self.knobs)
        if self.deterministic:
            return (figure_spec(self.figure, label=f"{self.name}[deterministic]", **knobs),)
        return tuple(
            figure_spec(self.figure, seed=seed, label=f"{self.name}[seed={seed}]", **knobs)
            for seed in self.seeds
        )


@dataclass(frozen=True)
class CampaignArm:
    """One compiled arm of a campaign: a runner spec plus its provenance.

    Attributes
    ----------
    stage:
        Name of the stage the arm belongs to.
    figure:
        The stage's figure.
    seed:
        The arm's seed (``None`` for deterministic figures).
    spec:
        The compiled :class:`~repro.runner.spec.ScenarioSpec`.
    key:
        The spec's content key — the unit of caching and dedupe.
    """

    stage: str
    figure: str
    seed: int | None
    spec: ScenarioSpec
    key: str


@dataclass(frozen=True)
class CampaignSpec:
    """A whole declarative campaign: named stages plus analysis settings.

    Attributes
    ----------
    name:
        Campaign name (from the ``campaign:`` key or the file stem).
    description:
        Free-text description carried into the manifest.
    stages:
        The expanded stages, in file order.
    analysis:
        Aggregation knobs (:class:`AnalysisSettings`).
    """

    name: str
    description: str = ""
    stages: tuple[StageSpec, ...] = ()
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)

    def __post_init__(self) -> None:
        """Reject duplicate stage names — arms must be addressable."""
        names = [stage.name for stage in self.stages]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(f"duplicate stage name(s): {duplicates}")

    def arms(self) -> tuple[CampaignArm, ...]:
        """Compile every stage into content-keyed runner arms."""
        compiled: list[CampaignArm] = []
        for stage in self.stages:
            for spec in stage.arms():
                compiled.append(
                    CampaignArm(
                        stage=stage.name,
                        figure=stage.figure,
                        seed=spec.seed,
                        spec=spec,
                        key=content_key(spec),
                    )
                )
        return tuple(compiled)

    def content_key(self) -> str:
        """Stable hex digest identifying the resolved campaign.

        Covers the canonicalized campaign (stages, knobs, seed grids,
        analysis settings) and the package version, mirroring the
        per-arm :func:`~repro.runner.spec.content_key` contract.
        """
        from repro import __version__

        payload = {"version": __version__, "campaign": canonical(self)}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
