"""Tests for repro.core.units: session metrics and outcome tables."""

import numpy as np
import pytest

from repro.core.units import SESSION_METRICS, OutcomeTable


class TestSession:
    def test_session_metrics_count(self):
        assert len(SESSION_METRICS) == 10

    def test_session_metrics_are_distinct(self):
        assert len(set(SESSION_METRICS)) == len(SESSION_METRICS)


class TestOutcomeTableConstruction:
    def test_empty_columns_raises(self):
        with pytest.raises(ValueError):
            OutcomeTable({})

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            OutcomeTable({"a": [1.0, 2.0], "b": [1.0]})

    def test_two_dimensional_column_raises(self):
        with pytest.raises(ValueError):
            OutcomeTable({"a": np.ones((2, 2))})

    def test_columns_are_stored_as_floats(self):
        table = OutcomeTable({"treated": [True, False], "link": [1, 2]})
        assert table["treated"].dtype == np.float64
        assert list(table["link"]) == [1.0, 2.0]

    def test_zero_row_table(self):
        table = OutcomeTable({"a": [], "b": []})
        assert len(table) == 0
        assert table.column_names == ["a", "b"]


class TestOutcomeTableAccess:
    @pytest.fixture
    def table(self):
        return OutcomeTable(
            {
                "link": [1, 1, 2, 2],
                "treated": [0, 1, 0, 1],
                "value": [10.0, 20.0, 30.0, 40.0],
            }
        )

    def test_len(self, table):
        assert len(table) == 4

    def test_contains(self, table):
        assert "link" in table
        assert "missing" not in table

    def test_column_names(self, table):
        assert set(table.column_names) == {"link", "treated", "value"}

    def test_missing_column_raises(self, table):
        with pytest.raises(KeyError):
            table.column("nope")

    def test_missing_column_error_names_available_columns(self, table):
        with pytest.raises(KeyError, match="link.*treated.*value"):
            table["nope"]

    def test_getitem(self, table):
        assert list(table["value"]) == [10.0, 20.0, 30.0, 40.0]

    def test_iteration_yields_column_names(self, table):
        assert set(iter(table)) == {"link", "treated", "value"}


class TestOutcomeTableTransforms:
    @pytest.fixture
    def table(self):
        return OutcomeTable(
            {
                "link": [1, 1, 2, 2],
                "treated": [0, 1, 0, 1],
                "value": [10.0, 20.0, 30.0, 40.0],
            }
        )

    def test_select(self, table):
        subset = table.select(np.array([True, False, True, False]))
        assert len(subset) == 2
        assert list(subset["value"]) == [10.0, 30.0]

    def test_select_wrong_length_raises(self, table):
        with pytest.raises(ValueError):
            table.select(np.array([True]))

    def test_where_single_condition(self, table):
        assert len(table.where(link=1)) == 2

    def test_where_multiple_conditions(self, table):
        subset = table.where(link=2, treated=1)
        assert len(subset) == 1
        assert subset["value"][0] == 40.0

    def test_where_without_match_keeps_columns(self, table):
        subset = table.where(link=3)
        assert len(subset) == 0
        assert subset.column_names == table.column_names

    def test_select_does_not_modify_source(self, table):
        table.select(np.array([True, False, False, False]))
        assert len(table) == 4
        assert list(table["value"]) == [10.0, 20.0, 30.0, 40.0]


class TestOutcomeTableSummaries:
    @pytest.fixture
    def table(self):
        return OutcomeTable(
            {
                "group": [0, 0, 1, 1],
                "value": [1.0, 3.0, 5.0, 7.0],
            }
        )

    def test_mean(self, table):
        assert table.mean("value") == pytest.approx(4.0)

    def test_mean_empty_raises(self, table):
        empty = table.select(np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            empty.mean("value")

    def test_groupby_mean(self, table):
        means = table.groupby_mean("group", "value")
        assert means[0.0] == pytest.approx(2.0)
        assert means[1.0] == pytest.approx(6.0)

    def test_groupby_mean_returns_keys_in_ascending_order(self):
        table = OutcomeTable({"hour": [5, 2, 5, 0, 2], "value": [1.0, 2.0, 3.0, 4.0, 6.0]})
        means = table.groupby_mean("hour", "value")
        assert list(means) == [0.0, 2.0, 5.0]
        assert list(means.values()) == [4.0, 4.0, 2.0]
