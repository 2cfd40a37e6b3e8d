"""Aggregation of per-session outcomes before variance estimation.

The paper's analysis (Appendix B) first aggregates session outcomes to the
hourly level:

.. math::

    Z_t(A) = \\frac{\\sum_i Y_i \\mathbf{1}[h_i = t, A_i = A]}
                   {\\sum_i \\mathbf{1}[h_i = t, A_i = A]}

i.e. the mean outcome of sessions in treatment condition ``A`` during hour
``t``.  Estimating standard errors on the hourly aggregates makes a
near-worst-case assumption that sessions within the same hour are perfectly
correlated.  The alternative — aggregating by account — assumes sessions
from different accounts are independent and yields much tighter intervals
(the paper's Figure 13 contrasts the two).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.units import OutcomeTable, group_means

__all__ = [
    "HourlyAggregate",
    "aggregate_hourly",
    "aggregate_by_account",
]


@dataclass(frozen=True)
class HourlyAggregate:
    """Hourly (or generally, per-group) aggregated outcomes.

    Attributes
    ----------
    hour:
        Hour-of-day label of each aggregated observation (used as the fixed
        effect in the regression).
    time_index:
        Monotone time index (day * 24 + hour) used to order observations for
        the Newey-West correction.
    treated:
        Treatment indicator of each aggregated observation.
    value:
        Mean outcome of sessions in that (time, arm) cell.
    count:
        Number of sessions behind each cell.
    """

    hour: np.ndarray
    time_index: np.ndarray
    treated: np.ndarray
    value: np.ndarray
    count: np.ndarray

    def __len__(self) -> int:
        return int(self.value.shape[0])


def aggregate_hourly(table: OutcomeTable, metric: str) -> HourlyAggregate:
    """Aggregate per-session outcomes to hourly treatment/control means.

    Each (day, hour, arm) cell with at least one session produces one
    aggregated observation.  Cells are ordered by time and then by arm so
    that the Newey-West lag structure is meaningful.  Rows whose
    ``treated`` (cast to int) is neither 0 nor 1 are dropped.  One stable
    sort groups the rows (:func:`~repro.core.units.group_means`).

    Parameters
    ----------
    table:
        Session-level outcomes with ``day``, ``hour`` and ``treated`` columns.
    metric:
        Name of the outcome column to aggregate.
    """
    for required in ("day", "hour", "treated"):
        if required not in table:
            raise KeyError(f"table is missing required column {required!r}")
    day = table["day"].astype(int)
    hour = table["hour"].astype(int)
    treated = table["treated"].astype(int)
    time_index = day * 24 + hour

    first, means, counts = group_means(table[metric], treated, time_index)
    arm = treated[first]
    in_arms = (arm == 0) | (arm == 1)
    return HourlyAggregate(
        hour=hour[first][in_arms],
        time_index=time_index[first][in_arms],
        treated=arm[in_arms],
        value=means[in_arms],
        count=counts[in_arms],
    )


def aggregate_by_account(
    table: OutcomeTable, metric: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate per-session outcomes to per-account means within each arm.

    Returns
    -------
    (account_values, account_treated, account_counts)
        Mean outcome, treatment indicator and session count per
        (account, arm) cell.  Accounts appearing in both arms (possible when
        a user starts sessions under both assignments) contribute one cell
        per arm.
    """
    for required in ("account_id", "treated"):
        if required not in table:
            raise KeyError(f"table is missing required column {required!r}")
    treated = table["treated"].astype(int)
    first, means, counts = group_means(
        table[metric], treated, table["account_id"].astype(int)
    )
    return means, treated[first], counts
