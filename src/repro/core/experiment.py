"""Glue between experiment designs, observed data and the analysis pipeline.

:func:`evaluate_comparisons` applies each
:class:`~repro.core.designs.base.ComparisonSpec` — an estimand and the two
groups of sessions that estimate it — to every requested metric, producing
a table of :class:`~repro.core.analysis.pipeline.MetricEstimate` objects.
A design's estimands are ``evaluate_comparisons(table,
design.comparisons(links, days))``.  Every paired-link estimate takes this
path: the design's four estimands (Figure 5), the emulated switchback and
event study (Figure 10) and the baseline link comparison (Section 4.1).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.analysis.pipeline import AnalysisConfig, MetricEstimate, analyze_metric
from repro.core.designs.base import CellSelector, ComparisonSpec
from repro.core.units import SESSION_METRICS, OutcomeTable

__all__ = ["select_cells", "evaluate_comparisons"]


def select_cells(table: OutcomeTable, selector: CellSelector) -> OutcomeTable:
    """Return the subset of sessions matched by a :class:`CellSelector`."""
    mask = np.ones(len(table), dtype=bool)
    if selector.links is not None:
        mask &= np.isin(table["link"].astype(int), np.array(selector.links, dtype=int))
    if selector.days is not None:
        mask &= np.isin(table["day"].astype(int), np.array(selector.days, dtype=int))
    if selector.treated is not None:
        mask &= table["treated"].astype(bool) == selector.treated
    return table.select(mask)


def evaluate_comparisons(
    table: OutcomeTable,
    comparisons: Iterable[ComparisonSpec],
    metrics: Sequence[str] = SESSION_METRICS,
    baselines: dict[str, float] | None = None,
    config: AnalysisConfig | None = None,
) -> dict[str, dict[str, MetricEstimate]]:
    """Apply each comparison to each metric.

    Parameters
    ----------
    table:
        Session-level outcomes.
    comparisons:
        The comparisons (estimands) to evaluate.
    metrics:
        Outcome metrics to analyze (defaults to all session metrics).
    baselines:
        Optional per-metric normalization baselines (the paper normalizes
        everything by the global control mean).  When omitted, each
        comparison normalizes by its own control group's mean.
    config:
        Analysis configuration.

    Returns
    -------
    dict
        ``result[estimand][metric]`` is a :class:`MetricEstimate`.
    """
    config = config or AnalysisConfig()
    results: dict[str, dict[str, MetricEstimate]] = {}
    for spec in comparisons:
        treated = select_cells(table, spec.treatment_selector)
        control = select_cells(table, spec.control_selector)
        if len(treated) == 0 or len(control) == 0:
            raise ValueError(
                f"comparison {spec.estimand!r} selected an empty group "
                f"(treated={len(treated)}, control={len(control)})"
            )
        per_metric: dict[str, MetricEstimate] = {}
        for metric in metrics:
            baseline = (baselines or {}).get(metric)
            per_metric[metric] = analyze_metric(
                treated, control, metric, spec.estimand, baseline=baseline, config=config
            )
        results[spec.estimand] = per_metric
    return results

