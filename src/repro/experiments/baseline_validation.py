"""Section 4.1 — validating that the two links are statistically similar.

Before the main experiment, the paper collects a week of baseline data on
both links and compares 24 metrics.  Most metrics show no significant
difference; link 1 has ~5 % more bytes, ~2 % higher stability, ~0.1 %
lower perceptual quality and ~20 % more rebuffers (believed to be a
content-placement artifact rather than a network difference).

:func:`compare_links_at_baseline` applies the paper's Appendix-B analysis
to baseline data: for each metric it treats "being served by link 1" as
the treatment indicator and estimates the link-1 vs link-2 difference with
hourly aggregation and Newey-West standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.analysis.pipeline import AnalysisConfig, MetricEstimate
from repro.core.designs.base import CellSelector, ComparisonSpec
from repro.core.experiment import evaluate_comparisons
from repro.core.units import SESSION_METRICS, OutcomeTable

__all__ = ["LinkComparisonRow", "compare_links_at_baseline"]


@dataclass(frozen=True)
class LinkComparisonRow:
    """Baseline difference between link 1 and link 2 for one metric."""

    metric: str
    estimate: MetricEstimate

    @property
    def relative_percent(self) -> float:
        """Link 1 minus link 2, as a percentage of the link-2 mean."""
        return self.estimate.relative_percent

    @property
    def significant(self) -> bool:
        """True when the difference is statistically significant."""
        return self.estimate.relative.significant


def compare_links_at_baseline(
    baseline_table: OutcomeTable,
    link_a: int = 1,
    link_b: int = 2,
    metrics: Sequence[str] = SESSION_METRICS,
    config: AnalysisConfig | None = None,
) -> list[LinkComparisonRow]:
    """Compare two links on baseline (untreated) data.

    Parameters
    ----------
    baseline_table:
        Session table from a period with no treatment anywhere.
    link_a, link_b:
        The links to compare; effects are reported as ``link_a - link_b``
        relative to ``link_b``.
    metrics:
        Metrics to compare (the paper looked at 24; we report the ten
        modelled ones).
    config:
        Analysis configuration (hourly aggregation by default).
    """
    estimand = f"baseline_link{link_a}_vs_link{link_b}"
    spec = ComparisonSpec(estimand, CellSelector(links=(link_a,)), CellSelector(links=(link_b,)))
    estimates = evaluate_comparisons(baseline_table, [spec], metrics, config=config)[estimand]
    return [LinkComparisonRow(metric, estimate) for metric, estimate in estimates.items()]
