"""Ordinary least squares with fixed effects and robust standard errors.

The paper's estimator for effects at scale (Appendix B) is the regression

.. math::

    Z_t(A) = c + \\beta_0 A + \\beta_t + \\varepsilon

fit on the hourly aggregates ``Z_t(A)``, where ``A`` is the treatment
indicator and ``beta_t`` are hour-of-day fixed effects absorbing diurnal
heterogeneity.  The coefficient ``beta_0`` on the treatment indicator is
the estimated treatment effect; its standard error uses the Newey-West
correction from :mod:`repro.core.analysis.newey_west`.

Implemented from scratch on numpy (no statsmodels dependency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analysis.aggregation import HourlyAggregate
from repro.core.analysis.newey_west import newey_west_covariance
from repro.core.estimators import EstimateWithCI, normal_ci

__all__ = ["OLSResult", "ols", "treatment_effect_regression"]


@dataclass(frozen=True)
class OLSResult:
    """Fitted ordinary-least-squares regression.

    Attributes
    ----------
    coefficients:
        Estimated coefficients, one per design-matrix column.
    covariance:
        Covariance matrix of the coefficients (robust if requested).
    residuals:
        Per-observation residuals.
    column_names:
        Human-readable names of the design-matrix columns.
    n_observations:
        Number of rows in the regression.
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    residuals: np.ndarray
    column_names: tuple[str, ...]
    n_observations: int

    def std_errors(self) -> np.ndarray:
        """Standard errors of all coefficients."""
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def coefficient(self, name: str) -> float:
        """Point estimate of the named coefficient."""
        return float(self.coefficients[self._index(name)])

    def std_error(self, name: str) -> float:
        """Standard error of the named coefficient."""
        return float(self.std_errors()[self._index(name)])

    def confidence_interval(
        self, name: str, confidence: float = 0.95
    ) -> EstimateWithCI:
        """Normal-theory confidence interval for the named coefficient."""
        return normal_ci(
            self.coefficient(name),
            self.std_error(name),
            confidence,
            self.n_observations,
        )

    def _index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise KeyError(
                f"no coefficient named {name!r}; available: {self.column_names}"
            ) from None


def ols(
    design: np.ndarray,
    outcomes: np.ndarray,
    column_names: tuple[str, ...] | None = None,
    hac_max_lag: int | None = None,
) -> OLSResult:
    """Fit OLS by least squares, optionally with Newey-West covariance.

    Parameters
    ----------
    design:
        Design matrix ``X`` of shape ``(n, k)``.
    outcomes:
        Outcome vector ``y`` of shape ``(n,)``.
    column_names:
        Optional names for the columns of ``X``.
    hac_max_lag:
        When given, the coefficient covariance is Newey-West with this
        maximum lag; otherwise the classical homoskedastic covariance
        ``sigma^2 (X'X)^{-1}`` is used.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    if X.ndim != 2:
        raise ValueError("design must be two-dimensional")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError("outcomes must be 1-D and match the design's row count")
    n, k = X.shape
    if n <= k:
        raise ValueError(
            f"regression needs more observations ({n}) than parameters ({k})"
        )
    if column_names is None:
        column_names = tuple(f"x{i}" for i in range(k))
    if len(column_names) != k:
        raise ValueError("column_names length must match the number of columns")

    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    residuals = y - X @ beta

    if hac_max_lag is not None:
        cov = newey_west_covariance(X, residuals, max_lag=hac_max_lag)
    else:
        dof = n - k
        sigma2 = float(residuals @ residuals) / dof if dof > 0 else 0.0
        cov = sigma2 * np.linalg.pinv(X.T @ X)

    return OLSResult(
        coefficients=beta,
        covariance=cov,
        residuals=residuals,
        column_names=tuple(column_names),
        n_observations=n,
    )


def treatment_effect_regression(
    aggregate: HourlyAggregate,
    hac_max_lag: int = 2,
    weight_by_count: bool = False,
) -> OLSResult:
    """Fit the paper's hourly fixed-effects regression.

    The design has an intercept, the treatment indicator and one dummy per
    hour of day (the first hour is absorbed into the intercept to avoid
    collinearity).  Rows are ordered by time index so the Newey-West lag
    structure corresponds to successive hours.

    Parameters
    ----------
    aggregate:
        Hourly aggregated outcomes from
        :func:`repro.core.analysis.aggregation.aggregate_hourly`, with
        cells of both arms.  With one arm the treatment column equals the
        intercept and the effect is not identified, so that raises
        ``ValueError``.
    hac_max_lag:
        Newey-West maximum lag, default two hours as in the paper.
    weight_by_count:
        When True, rows are weighted by the square root of the session count
        behind each cell (a precision weight).  The paper's analysis uses
        unweighted rows, which is the default.
    """
    n_treated = int(np.count_nonzero(aggregate.treated))
    if n_treated in (0, len(aggregate)):
        raise ValueError(
            "the regression needs both treated and control cells; "
            f"the aggregate has {n_treated} treated of {len(aggregate)}"
        )
    order = np.lexsort((aggregate.treated, aggregate.time_index))
    hour = aggregate.hour[order]
    treated = aggregate.treated[order].astype(float)
    value = aggregate.value[order].astype(float)
    count = aggregate.count[order].astype(float)

    hours_present = sorted(set(int(h) for h in hour))
    fe_hours = hours_present[1:]  # first hour absorbed by the intercept
    columns: list[np.ndarray] = [np.ones_like(value), treated]
    names: list[str] = ["intercept", "treatment"]
    for h in fe_hours:
        columns.append((hour == h).astype(float))
        names.append(f"hour_{h:02d}")
    X = np.column_stack(columns)
    y = value

    if weight_by_count:
        w = np.sqrt(count)
        X = X * w[:, None]
        y = y * w

    return ols(X, y, tuple(names), hac_max_lag=hac_max_lag)
