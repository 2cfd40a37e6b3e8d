"""End-to-end analysis of one metric from session-level data.

This module wires together the Appendix-B workflow:

1. restrict the session table to the comparison of interest (which arm on
   which link counts as "treated" depends on the estimand — TTE, spillover,
   or a naive within-link A/B effect);
2. aggregate to the hourly level (or to the account level for naive A/B
   tests, as the paper does);
3. run the fixed-effects regression with Newey-West standard errors
   (hourly) or a clustered difference in means (account level);
4. normalize the effect by a global control baseline so results are
   comparable percentages.

:func:`analyze_metric` is the single entry point used by every experiment
harness in :mod:`repro.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analysis.aggregation import aggregate_by_account, aggregate_hourly
from repro.core.analysis.regression import treatment_effect_regression
from repro.core.estimators import EstimateWithCI, difference_in_means
from repro.core.units import OutcomeTable

__all__ = ["AnalysisConfig", "MetricEstimate", "analyze_metric"]


@dataclass(frozen=True)
class AnalysisConfig:
    """Configuration of the statistical analysis.

    Attributes
    ----------
    aggregation:
        ``"hourly"`` for the paper's conservative hourly aggregation with
        Newey-West standard errors, or ``"account"`` for account-level
        clustering (the standard A/B-test analysis, producing much tighter
        intervals — the comparison in the paper's Figure 13).
    hac_max_lag:
        Newey-West maximum lag when ``aggregation == "hourly"``.
    confidence:
        Confidence level for the reported intervals.
    """

    aggregation: str = "hourly"
    hac_max_lag: int = 2
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.aggregation not in ("hourly", "account"):
            raise ValueError("aggregation must be 'hourly' or 'account'")
        if self.hac_max_lag < 0:
            raise ValueError("hac_max_lag must be non-negative")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass(frozen=True)
class MetricEstimate:
    """Estimated effect for one metric, in absolute and relative terms.

    Attributes
    ----------
    metric:
        Name of the analyzed outcome.
    estimand:
        Label of the quantity estimated (e.g. ``"tte"``, ``"spillover"``,
        ``"ab_0.05"``).
    absolute:
        Effect in the metric's own units, with confidence interval.
    relative:
        Effect as a fraction of ``baseline`` (the paper reports these as
        percentages), with confidence interval.
    baseline:
        The global control mean used for normalization.
    """

    metric: str
    estimand: str
    absolute: EstimateWithCI
    relative: EstimateWithCI
    baseline: float

    @property
    def relative_percent(self) -> float:
        """Relative effect in percent (e.g. ``12.0`` for +12 %)."""
        return 100.0 * self.relative.estimate


def analyze_metric(
    treated_table: OutcomeTable,
    control_table: OutcomeTable,
    metric: str,
    estimand: str,
    baseline: float | None = None,
    config: AnalysisConfig | None = None,
) -> MetricEstimate:
    """Estimate the effect of treatment on one metric.

    The two tables are stacked into one, of only the columns the
    aggregation reads (``day``, ``hour`` or ``account_id``, and
    ``metric``), so any other columns they carry do not matter.

    Parameters
    ----------
    treated_table:
        Sessions playing the role of ``A_i = 1`` for this comparison.
    control_table:
        Sessions playing the role of ``A_i = 0`` for this comparison.
    metric:
        Outcome column to analyze.
    estimand:
        Label recorded on the result (does not change the computation; the
        caller selects the comparison tables according to the estimand).
    baseline:
        Mean used to normalize the effect to a relative change.  When None,
        the control table's mean for this metric is used.  The paper
        normalizes every estimate by the same global control condition (the
        95 % control sessions on link 2).
    config:
        Analysis configuration (aggregation scheme, HAC lag, confidence).
    """
    config = config or AnalysisConfig()
    keys = ("day", "hour") if config.aggregation == "hourly" else ("account_id",)
    stacked = {
        name: np.concatenate([treated_table[name], control_table[name]])
        for name in (*keys, metric)
    }
    stacked["treated"] = np.concatenate([np.ones(len(treated_table)), np.zeros(len(control_table))])
    combined = OutcomeTable(stacked)

    if config.aggregation == "hourly":
        aggregate = aggregate_hourly(combined, metric)
        fit = treatment_effect_regression(aggregate, hac_max_lag=config.hac_max_lag)
        absolute = fit.confidence_interval("treatment", confidence=config.confidence)
    else:
        values, arms, _counts = aggregate_by_account(combined, metric)
        result = difference_in_means(
            values[arms == 1], values[arms == 0], confidence=config.confidence
        )
        absolute = result.effect

    if baseline is None:
        baseline = control_table.mean(metric)
    if baseline == 0.0:
        raise ZeroDivisionError(
            f"baseline for metric {metric!r} is zero; cannot normalize"
        )
    relative = absolute.scaled(1.0 / baseline)

    return MetricEstimate(
        metric=metric,
        estimand=estimand,
        absolute=absolute,
        relative=relative,
        baseline=float(baseline),
    )
