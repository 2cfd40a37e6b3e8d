"""The grouped means equal boolean-mask loops, bit for bit.

``aggregate_hourly``, ``aggregate_by_account``,
``OutcomeTable.groupby_mean`` and ``cluster_robust_variance`` group rows
with one stable sort (``repro.core.units.group_means``).  The references
below are the loops they replaced: one boolean mask per group, then
``.mean()`` of the masked values.  Every field must be equal byte for
byte (dtype, shape and ``tobytes()``, so the sign of a zero counts too),
never approximately: a stable sort keeps each group's rows in table
order, and ``np.add.reduce(x) / n`` is how ``ndarray.mean`` adds.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.analysis.aggregation import (
    HourlyAggregate,
    aggregate_by_account,
    aggregate_hourly,
)
from repro.core.estimators import cluster_robust_variance
from repro.core.units import OutcomeTable, group_means


def masked_hourly(table: OutcomeTable, metric: str) -> HourlyAggregate:
    """One mask per (time index, arm) cell; arms other than 0 and 1 drop."""
    day = table["day"].astype(int)
    hour = table["hour"].astype(int)
    treated = table["treated"].astype(int)
    values = table[metric]
    time_index = day * 24 + hour
    cells: list[tuple[int, int, int, float, int]] = []
    for t in np.unique(time_index):
        in_cell = time_index == t
        for arm in (0, 1):
            mask = in_cell & (treated == arm)
            n = int(mask.sum())
            if n:
                cells.append((int(hour[mask][0]), int(t), arm, float(values[mask].mean()), n))
    columns = list(zip(*cells)) or [()] * 5
    return HourlyAggregate(
        hour=np.array(columns[0], dtype=int),
        time_index=np.array(columns[1], dtype=int),
        treated=np.array(columns[2], dtype=int),
        value=np.array(columns[3], dtype=float),
        count=np.array(columns[4], dtype=int),
    )


def masked_by_account(table: OutcomeTable, metric: str):
    """One mask per (account, arm) cell, in account then arm order."""
    accounts = table["account_id"].astype(int)
    treated = table["treated"].astype(int)
    values = table[metric]
    means: list[float] = []
    arms: list[int] = []
    counts: list[int] = []
    for account in np.unique(accounts):
        of_account = accounts == account
        for arm in np.unique(treated[of_account]):
            mask = of_account & (treated == arm)
            means.append(float(values[mask].mean()))
            arms.append(int(arm))
            counts.append(int(mask.sum()))
    return (
        np.array(means, dtype=float),
        np.array(arms, dtype=int),
        np.array(counts, dtype=int),
    )


def masked_groupby_mean(table: OutcomeTable, key: str, value: str) -> dict[float, float]:
    """One mask per distinct key."""
    keys = table[key]
    values = table[value]
    return {float(k): float(values[keys == k].mean()) for k in np.unique(keys)}


def masked_cluster_variance(outcomes: np.ndarray, clusters: np.ndarray) -> tuple[float, int]:
    """One mask per distinct cluster, then the variance of the cluster means."""
    cluster_means = np.array(
        [outcomes[clusters == c].mean() for c in np.unique(clusters)], dtype=float
    )
    if cluster_means.size < 2:
        return 0.0, cluster_means.size
    return float(cluster_means.var(ddof=1) / cluster_means.size), cluster_means.size


def assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@st.composite
def session_tables(draw) -> OutcomeTable:
    """Random session tables.

    Rows come in time order or shuffled; some hours hold one arm only;
    ``treated`` takes 0.5 and 2 as well as 0 and 1; values are Pareto
    tailed with random signs, in groups large enough for numpy's
    pairwise summation to split them (over 128 rows).  Hours run past 23,
    so some (day, hour) pairs share a time index.
    """
    n = draw(st.integers(min_value=0, max_value=1500))
    n_days = draw(st.integers(min_value=1, max_value=3))
    n_hours = draw(st.integers(min_value=1, max_value=26))
    n_accounts = draw(st.integers(min_value=1, max_value=60))
    tail = draw(st.floats(min_value=0.5, max_value=3.0))
    odd_arms = draw(st.floats(min_value=0.0, max_value=0.2))
    shuffled = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    day = rng.integers(0, n_days, n)
    hour = rng.integers(0, n_hours, n)
    treated = (rng.random(n) < rng.random()).astype(float)
    one_arm_hours = rng.random(n_hours) < 0.3
    treated[one_arm_hours[hour]] = float(rng.integers(0, 2))
    odd = rng.random(n) < odd_arms
    treated[odd] = rng.choice([0.5, 2.0], size=int(odd.sum()))
    columns = {
        "day": day.astype(float),
        "hour": hour.astype(float),
        "treated": treated,
        "account_id": rng.integers(0, n_accounts, n).astype(float),
        "value": rng.pareto(tail, n) * rng.choice([-1.0, 1.0], n) * 10.0 ** rng.integers(-3, 4),
    }
    rows = np.lexsort((hour, day))
    if shuffled:
        rows = rng.permutation(n)
    return OutcomeTable({name: column[rows] for name, column in columns.items()})


class TestGroupedMeansMatchMasks:
    @given(table=session_tables())
    @settings(max_examples=400, deadline=None)
    def test_aggregate_hourly(self, table):
        actual = aggregate_hourly(table, "value")
        expected = masked_hourly(table, "value")
        for field in ("hour", "time_index", "treated", "value", "count"):
            assert_identical(getattr(actual, field), getattr(expected, field))

    @given(table=session_tables())
    @settings(max_examples=400, deadline=None)
    def test_aggregate_by_account(self, table):
        for actual, expected in zip(
            aggregate_by_account(table, "value"), masked_by_account(table, "value")
        ):
            assert_identical(actual, expected)

    @given(table=session_tables(), key=st.sampled_from(["hour", "account_id", "treated"]))
    @settings(max_examples=400, deadline=None)
    def test_groupby_mean(self, table, key):
        actual = table.groupby_mean(key, "value")
        expected = masked_groupby_mean(table, key, "value")
        for part in (dict.keys, dict.values):
            assert_identical(
                np.array(list(part(actual)), dtype=float),
                np.array(list(part(expected)), dtype=float),
            )

    @given(table=session_tables())
    @settings(max_examples=400, deadline=None)
    def test_cluster_robust_variance(self, table):
        assume(len(table) > 0)
        outcomes, clusters = table["value"], table["account_id"]
        variance, n_clusters = cluster_robust_variance(outcomes, clusters)
        expected_variance, expected_clusters = masked_cluster_variance(outcomes, clusters)
        assert n_clusters == expected_clusters
        assert_identical(np.array(variance), np.array(expected_variance))


class TestEveryGroupSize:
    """Tables with 30 groups of each size from 1 to 20 rows, interleaved.

    Groups of fewer than 8 rows and groups of 8 or more are summed by
    different code; each mean must equal the group's slice sum over its
    size, bit for bit (``tobytes``, so the sign of a zero counts too).
    """

    @pytest.mark.parametrize("signs", ["positive", "mixed"])
    @pytest.mark.parametrize("seed", range(4))
    def test_means_equal_slice_sums(self, signs, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.permutation(np.repeat(np.arange(1, 21), 30))
        keys = rng.permutation(np.repeat(np.arange(sizes.size), sizes)).astype(float)
        values = rng.lognormal(0.0, 3.0, keys.size)
        if signs == "mixed":
            values *= rng.choice([-1.0, 1.0], keys.size)
            values[rng.random(keys.size) < 0.05] = -0.0
            values[rng.random(keys.size) < 0.05] = 0.0
        first, means, counts = group_means(values, keys)

        ranked = values[np.argsort(keys, kind="stable")]
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        expected = np.array([np.add.reduce(ranked[s : s + n]) / n for s, n in zip(starts, sizes)])
        assert counts.tolist() == sizes.tolist()
        assert keys[first].tolist() == list(range(sizes.size))
        assert means.tobytes() == expected.tobytes()

    def test_groups_of_negative_zeros(self):
        values = np.array([-0.0, -0.0, -0.0, 1.0, -1.0] + [-0.0] * 9)
        keys = np.array([0, 1, 1, 2, 2] + [3] * 9)
        _first, means, _counts = group_means(values, keys)
        groups = ([-0.0], [-0.0] * 2, [1.0, -1.0], [-0.0] * 9)
        expected = np.array([np.array(group).mean() for group in groups])
        assert means.tobytes() == expected.tobytes()


class TestEmptyTable:
    @pytest.fixture
    def empty(self):
        columns = ("day", "hour", "treated", "account_id", "value")
        return OutcomeTable({name: [] for name in columns})

    def test_aggregate_hourly(self, empty):
        actual = aggregate_hourly(empty, "value")
        expected = masked_hourly(empty, "value")
        assert len(actual) == 0
        for field in ("hour", "time_index", "treated", "value", "count"):
            assert_identical(getattr(actual, field), getattr(expected, field))

    def test_aggregate_by_account(self, empty):
        for actual, expected in zip(
            aggregate_by_account(empty, "value"), masked_by_account(empty, "value")
        ):
            assert actual.size == 0
            assert_identical(actual, expected)

    def test_groupby_mean(self, empty):
        assert empty.groupby_mean("hour", "value") == {}


class TestGroupMeans:
    def test_groups_keep_key_order_and_first_rows(self):
        values = np.array([1.0, 10.0, 3.0, 20.0, 5.0, 30.0])
        first, means, counts = group_means(values, np.array([2, 1, 2, 1, 3, 1]))
        assert first.tolist() == [1, 0, 4]
        assert means.tolist() == [20.0, 2.0, 5.0]
        assert counts.tolist() == [3, 2, 1]

    def test_last_key_sorts_first(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        minor = np.array([1, 0, 0, 1])
        major = np.array([5, 5, 4, 4])
        first, means, counts = group_means(values, minor, major)
        assert first.tolist() == [2, 3, 1, 0]
        assert means.tolist() == [3.0, 4.0, 2.0, 1.0]
        assert counts.tolist() == [1, 1, 1, 1]

    def test_empty(self):
        first, means, counts = group_means(np.array([]), np.array([]))
        assert first.size == means.size == counts.size == 0
        assert means.dtype == float
