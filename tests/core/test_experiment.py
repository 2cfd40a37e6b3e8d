"""Tests for repro.core.experiment: wiring designs, data and analysis."""

import numpy as np
import pytest

from repro.core.designs.base import CellSelector, ComparisonSpec
from repro.core.designs.paired_link import PairedLinkDesign
from repro.core.experiment import evaluate_comparisons, select_cells
from repro.core.units import OutcomeTable


def make_table(seed=0, effect_on_link1=3.0):
    """Two links, two days, 24 hours, with an arm effect only on link 1."""
    rng = np.random.default_rng(seed)
    cols = {k: [] for k in ("link", "day", "hour", "treated", "account_id", "value")}
    for link in (1, 2):
        for day in (0, 1):
            for hour in range(24):
                for arm in (0, 1):
                    n = 10
                    effect = effect_on_link1 if (link == 1 and arm == 1) else 0.0
                    values = rng.normal(10.0 + effect, 1.0, n)
                    cols["link"].extend([link] * n)
                    cols["day"].extend([day] * n)
                    cols["hour"].extend([hour] * n)
                    cols["treated"].extend([arm] * n)
                    cols["account_id"].extend(rng.integers(0, 30, n).tolist())
                    cols["value"].extend(values.tolist())
    return OutcomeTable({k: np.array(v, dtype=float) for k, v in cols.items()})


class TestSelectCells:
    def test_select_by_link(self):
        table = make_table()
        subset = select_cells(table, CellSelector(links=(1,)))
        assert set(subset["link"].astype(int)) == {1}

    def test_select_by_day_and_arm(self):
        table = make_table()
        subset = select_cells(table, CellSelector(days=(0,), treated=True))
        assert set(subset["day"].astype(int)) == {0}
        assert set(subset["treated"].astype(int)) == {1}

    def test_wildcard_selects_all(self):
        table = make_table()
        assert len(select_cells(table, CellSelector())) == len(table)


class TestEvaluateComparisons:
    def test_recovers_effect(self):
        table = make_table(effect_on_link1=3.0)
        spec = ComparisonSpec(
            estimand="link1_effect",
            treatment_selector=CellSelector(links=(1,), treated=True),
            control_selector=CellSelector(links=(1,), treated=False),
        )
        results = evaluate_comparisons(table, [spec], metrics=("value",))
        estimate = results["link1_effect"]["value"]
        assert estimate.absolute.covers(3.0)

    def test_empty_group_raises(self):
        table = make_table()
        spec = ComparisonSpec(
            estimand="empty",
            treatment_selector=CellSelector(links=(9,)),
            control_selector=CellSelector(links=(1,)),
        )
        with pytest.raises(ValueError):
            evaluate_comparisons(table, [spec], metrics=("value",))

    def test_baseline_overrides_normalization(self):
        table = make_table(effect_on_link1=3.0)
        spec = ComparisonSpec(
            estimand="e",
            treatment_selector=CellSelector(links=(1,), treated=True),
            control_selector=CellSelector(links=(1,), treated=False),
        )
        results = evaluate_comparisons(
            table, [spec], metrics=("value",), baselines={"value": 100.0}
        )
        assert results["e"]["value"].baseline == pytest.approx(100.0)


class TestEvaluateDesign:
    def test_paired_link_design_estimands_present(self):
        table = make_table(effect_on_link1=3.0)
        comparisons = PairedLinkDesign().comparisons((1, 2), (0, 1))
        estimates = evaluate_comparisons(table, comparisons, metrics=("value",))
        assert set(estimates) == {"tte", "spillover", "ab_0.95", "ab_0.05"}

    def test_comparisons_use_run_days(self):
        table = make_table()
        design = PairedLinkDesign()
        day0 = evaluate_comparisons(table, design.comparisons((1, 2), (0,)), metrics=("value",))
        only_day0 = evaluate_comparisons(
            table.where(day=0), design.comparisons((1, 2), (0, 1)), metrics=("value",)
        )
        assert day0 == only_day0
