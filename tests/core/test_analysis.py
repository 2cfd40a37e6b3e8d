"""Tests for the statistical analysis pipeline (Appendix B machinery)."""

import numpy as np
import pytest

from repro.core.analysis.aggregation import aggregate_by_account, aggregate_hourly
from repro.core.analysis.interference import InterferenceDiagnostics, detect_interference
from repro.core.analysis.newey_west import bartlett_weights, newey_west_covariance
from repro.core.analysis.pipeline import AnalysisConfig, analyze_metric
from repro.core.analysis.power import (
    switchback_intervals_needed,
    minimum_detectable_effect,
    required_sample_size,
)
from repro.core.analysis.regression import ols, treatment_effect_regression
from repro.core.estimators import EstimateWithCI
from repro.core.units import OutcomeTable


def make_table(n_per_cell=20, days=(0, 1), effect=2.0, seed=0):
    """Session table with a known treatment effect and hour structure."""
    rng = np.random.default_rng(seed)
    cols = {k: [] for k in ("day", "hour", "treated", "account_id", "value")}
    for day in days:
        for hour in range(24):
            for arm in (0, 1):
                values = rng.normal(10.0 + hour * 0.1 + arm * effect, 1.0, n_per_cell)
                cols["day"].extend([day] * n_per_cell)
                cols["hour"].extend([hour] * n_per_cell)
                cols["treated"].extend([arm] * n_per_cell)
                cols["account_id"].extend(
                    rng.integers(0, 50, n_per_cell).tolist()
                )
                cols["value"].extend(values.tolist())
    return OutcomeTable({k: np.array(v, dtype=float) for k, v in cols.items()})


class TestHourlyAggregation:
    def test_cell_count(self):
        table = make_table(days=(0,))
        agg = aggregate_hourly(table, "value")
        assert len(agg) == 24 * 2

    def test_counts_match(self):
        table = make_table(n_per_cell=7, days=(0,))
        agg = aggregate_hourly(table, "value")
        assert all(c == 7 for c in agg.count)

    def test_values_are_cell_means(self):
        table = OutcomeTable(
            {
                "day": [0, 0, 0, 0],
                "hour": [5, 5, 5, 5],
                "treated": [0, 0, 1, 1],
                "value": [1.0, 3.0, 10.0, 20.0],
            }
        )
        agg = aggregate_hourly(table, "value")
        control = agg.value[agg.treated == 0][0]
        treated = agg.value[agg.treated == 1][0]
        assert control == pytest.approx(2.0)
        assert treated == pytest.approx(15.0)

    def test_missing_column_raises(self):
        table = OutcomeTable({"value": [1.0]})
        with pytest.raises(KeyError):
            aggregate_hourly(table, "value")

    def test_time_index_spans_days(self):
        table = make_table(days=(0, 1))
        agg = aggregate_hourly(table, "value")
        assert agg.time_index.max() >= 24


class TestAccountAggregation:
    def test_account_cells(self):
        table = OutcomeTable(
            {
                "account_id": [1, 1, 2, 2],
                "treated": [0, 0, 1, 1],
                "value": [1.0, 3.0, 5.0, 7.0],
            }
        )
        values, arms, counts = aggregate_by_account(table, "value")
        assert len(values) == 2
        assert sorted(values.tolist()) == [2.0, 6.0]
        assert sorted(counts.tolist()) == [2, 2]

    def test_account_in_both_arms_gets_two_cells(self):
        table = OutcomeTable(
            {
                "account_id": [1, 1],
                "treated": [0, 1],
                "value": [1.0, 9.0],
            }
        )
        values, arms, _ = aggregate_by_account(table, "value")
        assert len(values) == 2
        assert set(arms.tolist()) == {0, 1}

    def test_missing_column_raises(self):
        with pytest.raises(KeyError):
            aggregate_by_account(OutcomeTable({"value": [1.0]}), "value")


class TestNeweyWest:
    def test_bartlett_weights(self):
        weights = bartlett_weights(2)
        assert weights == pytest.approx([2.0 / 3.0, 1.0 / 3.0])

    def test_zero_lag_equals_white(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(100), rng.normal(size=100)])
        e = rng.normal(size=100)
        cov = newey_west_covariance(X, e, max_lag=0)
        assert cov.shape == (2, 2)
        assert np.allclose(cov, cov.T)

    def test_positive_autocorrelation_inflates_variance(self):
        rng = np.random.default_rng(1)
        n = 400
        X = np.ones((n, 1))
        # AR(1) residuals with strong positive autocorrelation.
        e = np.zeros(n)
        for t in range(1, n):
            e[t] = 0.8 * e[t - 1] + rng.normal()
        cov0 = newey_west_covariance(X, e, max_lag=0)[0, 0]
        cov5 = newey_west_covariance(X, e, max_lag=5)[0, 0]
        assert cov5 > cov0

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            newey_west_covariance(np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            newey_west_covariance(np.ones((5, 1)), np.ones(4))
        with pytest.raises(ValueError):
            newey_west_covariance(np.ones((2, 3)), np.ones(2))


class TestOLS:
    def test_recovers_exact_coefficients(self):
        X = np.column_stack([np.ones(50), np.arange(50.0)])
        y = 3.0 + 2.0 * np.arange(50.0)
        fit = ols(X, y, ("intercept", "slope"))
        assert fit.coefficient("intercept") == pytest.approx(3.0)
        assert fit.coefficient("slope") == pytest.approx(2.0)

    def test_noisy_recovery_with_ci(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(500), rng.normal(size=500)])
        y = 1.0 + 0.5 * X[:, 1] + rng.normal(0, 0.3, 500)
        fit = ols(X, y, ("intercept", "beta"))
        ci = fit.confidence_interval("beta")
        assert ci.covers(0.5)
        assert ci.significant

    def test_unknown_coefficient_raises(self):
        fit = ols(np.ones((5, 1)), np.ones(5), ("intercept",))
        with pytest.raises(KeyError):
            fit.coefficient("nope")

    def test_too_few_observations_raise(self):
        with pytest.raises(ValueError):
            ols(np.ones((2, 3)), np.ones(2))

    def test_column_name_mismatch_raises(self):
        with pytest.raises(ValueError):
            ols(np.ones((5, 2)), np.ones(5), ("only_one",))

    @pytest.mark.parametrize("confidence", [1.0, 1.5])
    def test_confidence_outside_unit_interval_raises(self, confidence):
        X = np.column_stack([np.ones(20), np.arange(20.0)])
        fit = ols(X, np.arange(20.0) ** 1.5, ("intercept", "slope"))
        with pytest.raises(ValueError):
            fit.confidence_interval("slope", confidence=confidence)


class TestTreatmentEffectRegression:
    def test_recovers_known_effect(self):
        table = make_table(effect=2.0, seed=3)
        agg = aggregate_hourly(table, "value")
        fit = treatment_effect_regression(agg)
        ci = fit.confidence_interval("treatment")
        assert ci.covers(2.0)
        assert ci.significant

    def test_null_effect_not_significant(self):
        table = make_table(effect=0.0, seed=4)
        agg = aggregate_hourly(table, "value")
        ci = treatment_effect_regression(agg).confidence_interval("treatment")
        assert ci.covers(0.0)

    def test_hour_fixed_effects_absorb_diurnal_pattern(self):
        table = make_table(effect=1.0, seed=5)
        agg = aggregate_hourly(table, "value")
        fit = treatment_effect_regression(agg)
        # The hour-23 fixed effect should be near 23 * 0.1 = 2.3.
        assert fit.coefficient("hour_23") == pytest.approx(2.3, abs=0.5)

    def test_empty_aggregate_raises(self):
        table = make_table(days=(0,))
        agg = aggregate_hourly(table, "value")
        empty = type(agg)(
            hour=agg.hour[:0],
            time_index=agg.time_index[:0],
            treated=agg.treated[:0],
            value=agg.value[:0],
            count=agg.count[:0],
        )
        with pytest.raises(ValueError):
            treatment_effect_regression(empty)

    @pytest.mark.parametrize("arm", [0, 1])
    def test_one_arm_aggregate_raises(self, arm):
        table = make_table(days=(0,))
        agg = aggregate_hourly(table.where(treated=arm), "value")
        assert set(agg.treated.tolist()) == {arm}
        with pytest.raises(ValueError, match="both treated and control"):
            treatment_effect_regression(agg)

    def test_weighted_regression_runs(self):
        table = make_table(effect=2.0, seed=6)
        agg = aggregate_hourly(table, "value")
        fit = treatment_effect_regression(agg, weight_by_count=True)
        assert fit.confidence_interval("treatment").covers(2.0)


class TestAnalyzeMetric:
    def test_hourly_and_account_agree_on_point_estimate(self):
        table = make_table(effect=2.0, seed=7)
        treated = table.where(treated=1)
        control = table.where(treated=0)
        hourly = analyze_metric(
            treated, control, "value", "test", config=AnalysisConfig("hourly")
        )
        account = analyze_metric(
            treated, control, "value", "test", config=AnalysisConfig("account")
        )
        assert hourly.absolute.estimate == pytest.approx(
            account.absolute.estimate, abs=0.3
        )

    def test_relative_normalization(self):
        table = make_table(effect=2.0, seed=8)
        treated = table.where(treated=1)
        control = table.where(treated=0)
        result = analyze_metric(treated, control, "value", "test", baseline=10.0)
        assert result.relative.estimate == pytest.approx(
            result.absolute.estimate / 10.0
        )
        assert result.relative_percent == pytest.approx(
            100.0 * result.relative.estimate
        )

    def test_zero_baseline_raises(self):
        table = make_table(seed=9)
        with pytest.raises(ZeroDivisionError):
            analyze_metric(
                table.where(treated=1),
                table.where(treated=0),
                "value",
                "test",
                baseline=0.0,
            )

    @pytest.mark.parametrize("aggregation", ["hourly", "account"])
    def test_extra_columns_do_not_matter(self, aggregation):
        table = make_table(effect=2.0, seed=10)
        treated, control = table.where(treated=1), table.where(treated=0)
        rng = np.random.default_rng(10)
        padded_treated = OutcomeTable(
            {**{n: treated[n] for n in treated}, "link": rng.normal(size=len(treated))}
        )
        padded_control = OutcomeTable(
            {**{n: control[n] for n in control}, "session_id": rng.normal(size=len(control))}
        )
        config = AnalysisConfig(aggregation)
        bare = analyze_metric(treated, control, "value", "test", config=config)
        padded = analyze_metric(padded_treated, padded_control, "value", "test", config=config)
        assert padded == bare

    @pytest.mark.parametrize("aggregation", ["hourly", "account"])
    @pytest.mark.parametrize("empty_arm", ["treated", "control"])
    def test_empty_arm_raises(self, aggregation, empty_arm):
        # With one arm the treatment column equals the intercept; an hourly
        # fit used to split the mean between them and report a confident,
        # meaningless effect (about half the mean, with a narrow interval).
        table = make_table(n_per_cell=2, days=(0, 1), effect=0.0, seed=11)
        arms = {"treated": table.where(treated=1), "control": table.where(treated=0)}
        arms[empty_arm] = table.where(treated=5)
        with pytest.raises(ValueError):
            analyze_metric(
                arms["treated"],
                arms["control"],
                "value",
                "test",
                baseline=10.0,
                config=AnalysisConfig(aggregation),
            )

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            AnalysisConfig(aggregation="nope")
        with pytest.raises(ValueError):
            AnalysisConfig(confidence=1.5)
        with pytest.raises(ValueError):
            AnalysisConfig(hac_max_lag=-1)


class TestPower:
    def test_required_sample_size_decreases_with_effect(self):
        small = required_sample_size(0.1, 1.0)
        large = required_sample_size(1.0, 1.0)
        assert small > large

    def test_mde_round_trip(self):
        n = required_sample_size(0.5, 2.0, power=0.8)
        mde = minimum_detectable_effect(n, 2.0, power=0.8)
        assert mde <= 0.5 * 1.05

    def test_switchback_intervals(self):
        assert switchback_intervals_needed(1.0, 1.0) == 2 * required_sample_size(1.0, 1.0)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            required_sample_size(0.0, 1.0)
        with pytest.raises(ValueError):
            required_sample_size(1.0, -1.0)
        with pytest.raises(ValueError):
            minimum_detectable_effect(0, 1.0)

    @pytest.mark.parametrize("levels", [{"power": 1.5}, {"power": 1.0}, {"significance": 0.0}])
    def test_mde_level_outside_unit_interval_raises(self, levels):
        with pytest.raises(ValueError):
            minimum_detectable_effect(100, 1.0, **levels)


class TestInterferenceDiagnostics:
    def _estimate(self, value, width=0.1):
        return EstimateWithCI(value, width / 4, value - width / 2, value + width / 2)

    def test_consistent_effects_pass(self):
        diag = detect_interference(
            {0.05: self._estimate(1.0), 0.5: self._estimate(1.02)},
            {0.05: self._estimate(0.0), 0.5: self._estimate(0.01)},
        )
        assert not diag.interference_detected
        assert "No evidence" in diag.summary()

    def test_disagreeing_ates_detected(self):
        diag = detect_interference(
            {0.05: self._estimate(1.0), 0.95: self._estimate(2.0)}
        )
        assert diag.interference_detected
        assert diag.inconsistent_ate_pairs == ((0.05, 0.95),)

    def test_nonzero_spillover_detected(self):
        diag = detect_interference(
            {0.5: self._estimate(1.0)},
            {0.5: self._estimate(0.5)},
        )
        assert diag.nonzero_spillovers == (0.5,)
        assert "spillover" in diag.summary()

    def test_partial_vs_ate_disagreement_detected(self):
        diag = detect_interference(
            {0.5: self._estimate(1.0)},
            partial_by_allocation={0.5: self._estimate(3.0)},
        )
        assert diag.partial_vs_ate_disagreements == (0.5,)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            detect_interference({})

    def test_diagnostics_dataclass_defaults(self):
        assert not InterferenceDiagnostics().interference_detected
