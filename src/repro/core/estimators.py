"""Estimators for treatment effects from observed experimental data.

The estimands of :mod:`repro.core.estimands` are expectations over the
randomization distribution; an experiment observes a single realization.
This module provides the estimators the paper uses:

* :func:`difference_in_means` — the naive A/B estimator ``tau_hat(p)``,
  with normal-theory confidence intervals using either independent-unit
  or cluster-robust (by account) standard errors.
* :func:`relative_effect` — converts absolute effects into the relative
  (percentage) effects the paper reports, normalized against a chosen
  control condition.

The regression-based estimator with hour fixed effects and Newey-West
standard errors (Appendix B) lives in :mod:`repro.core.analysis.regression`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.core.units import group_means

__all__ = [
    "EstimateWithCI",
    "DifferenceInMeans",
    "difference_in_means",
    "relative_effect",
    "cluster_robust_variance",
    "normal_ci",
]


@dataclass(frozen=True)
class EstimateWithCI:
    """A point estimate with a confidence interval.

    Attributes
    ----------
    estimate:
        The point estimate.
    std_error:
        Standard error of the estimate.
    ci_low, ci_high:
        Bounds of the confidence interval.
    confidence:
        Confidence level (e.g. 0.95).
    n:
        Number of observations (or clusters) behind the estimate.
    """

    estimate: float
    std_error: float
    ci_low: float
    ci_high: float
    confidence: float = 0.95
    n: int = 0

    @property
    def significant(self) -> bool:
        """True when the confidence interval excludes zero."""
        return (self.ci_low > 0.0) or (self.ci_high < 0.0)

    @property
    def width(self) -> float:
        """Width of the confidence interval."""
        return self.ci_high - self.ci_low

    def covers(self, value: float) -> bool:
        """True when ``value`` lies inside the confidence interval."""
        return self.ci_low <= value <= self.ci_high

    def scaled(self, factor: float) -> "EstimateWithCI":
        """Return the estimate multiplied by ``factor`` (CIs scale too)."""
        if factor >= 0:
            low, high = self.ci_low * factor, self.ci_high * factor
        else:
            low, high = self.ci_high * factor, self.ci_low * factor
        return EstimateWithCI(
            self.estimate * factor,
            abs(self.std_error * factor),
            low,
            high,
            self.confidence,
            self.n,
        )


@dataclass(frozen=True)
class DifferenceInMeans:
    """Result of a difference-in-means comparison between two groups."""

    effect: EstimateWithCI
    treatment_mean: float
    control_mean: float
    n_treatment: int
    n_control: int

    @property
    def relative_effect(self) -> float:
        """Effect relative to the control mean (a fraction, not percent)."""
        if self.control_mean == 0.0:
            raise ZeroDivisionError("control mean is zero; relative effect undefined")
        return self.effect.estimate / self.control_mean


def normal_ci(estimate: float, std_error: float, confidence: float, n: int) -> EstimateWithCI:
    """Build an :class:`EstimateWithCI` from a normal approximation.

    Raises :class:`ValueError` unless ``confidence`` is strictly between
    0 and 1.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be strictly between 0 and 1")
    z = float(special.ndtri(0.5 + confidence / 2.0))
    return EstimateWithCI(
        estimate=float(estimate),
        std_error=float(std_error),
        ci_low=float(estimate - z * std_error),
        ci_high=float(estimate + z * std_error),
        confidence=confidence,
        n=int(n),
    )


def cluster_robust_variance(
    outcomes: np.ndarray, clusters: np.ndarray
) -> tuple[float, int]:
    """Variance of a group mean with clustering on ``clusters``.

    Sessions from the same account are not independent; the paper's
    account-level analysis aggregates sessions to accounts before computing
    standard errors.  This helper returns the variance of the mean computed
    from cluster means, along with the number of clusters.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    clusters = np.asarray(clusters)
    if outcomes.shape != clusters.shape:
        raise ValueError("outcomes and clusters must have the same shape")
    if outcomes.size == 0:
        raise ValueError("cannot compute variance of an empty group")
    _, cluster_means, _ = group_means(outcomes, clusters)
    n_clusters = cluster_means.size
    if n_clusters < 2:
        return 0.0, n_clusters
    return float(cluster_means.var(ddof=1) / n_clusters), n_clusters


def difference_in_means(
    treatment_outcomes: np.ndarray,
    control_outcomes: np.ndarray,
    confidence: float = 0.95,
    treatment_clusters: np.ndarray | None = None,
    control_clusters: np.ndarray | None = None,
) -> DifferenceInMeans:
    """The naive A/B estimator: difference of group means.

    Parameters
    ----------
    treatment_outcomes, control_outcomes:
        Per-unit outcomes in each arm.
    confidence:
        Confidence level for the interval (default 95 %, as in the paper).
    treatment_clusters, control_clusters:
        Optional cluster labels (e.g. account ids).  When provided, standard
        errors are computed from cluster means ("account-level" analysis);
        otherwise units are assumed independent.
    """
    t = np.asarray(treatment_outcomes, dtype=float)
    c = np.asarray(control_outcomes, dtype=float)
    if t.size == 0 or c.size == 0:
        raise ValueError("both treatment and control groups must be non-empty")

    t_mean, c_mean = float(t.mean()), float(c.mean())

    if treatment_clusters is not None:
        t_var, t_n = cluster_robust_variance(t, treatment_clusters)
    else:
        t_var = float(t.var(ddof=1) / t.size) if t.size > 1 else 0.0
        t_n = t.size
    if control_clusters is not None:
        c_var, c_n = cluster_robust_variance(c, control_clusters)
    else:
        c_var = float(c.var(ddof=1) / c.size) if c.size > 1 else 0.0
        c_n = c.size

    effect = t_mean - c_mean
    std_error = float(np.sqrt(t_var + c_var))
    ci = normal_ci(effect, std_error, confidence, t_n + c_n)
    return DifferenceInMeans(
        effect=ci,
        treatment_mean=t_mean,
        control_mean=c_mean,
        n_treatment=int(t.size),
        n_control=int(c.size),
    )


def relative_effect(estimate: EstimateWithCI, baseline: float) -> EstimateWithCI:
    """Express an absolute effect relative to a baseline mean.

    The paper reports every effect as a percentage of the global control
    condition (the mean over the 95 % control sessions on link 2).  This
    helper divides the estimate and its interval by ``baseline``.
    """
    if baseline == 0.0:
        raise ZeroDivisionError("baseline is zero; relative effect undefined")
    return estimate.scaled(1.0 / baseline)
