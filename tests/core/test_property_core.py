"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import interval_assignment
from repro.core.estimands import PotentialOutcomeCurve
from repro.core.estimators import difference_in_means, relative_effect
from repro.core.units import OutcomeTable

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestIntervalAssignmentProperties:
    @given(
        n=st.integers(min_value=2, max_value=200),
        p=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_draw_holds_both_arms(self, n, p, seed):
        assignment = interval_assignment(n, treatment_probability=p, seed=seed)
        assert assignment.shape == (n,)
        assert assignment.any()
        assert not assignment.all()

    @given(
        n=st.integers(min_value=2, max_value=200),
        p=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_seed_fixes_the_draw(self, n, p, seed):
        a = interval_assignment(n, treatment_probability=p, seed=seed)
        b = interval_assignment(n, treatment_probability=p, seed=seed)
        assert np.array_equal(a, b)


class TestCurveProperties:
    @given(
        mu_t1=st.floats(min_value=-100, max_value=100, allow_nan=False),
        mu_c0=st.floats(min_value=-100, max_value=100, allow_nan=False),
        mu_t_mid=st.floats(min_value=-100, max_value=100, allow_nan=False),
        mu_c_mid=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_identities_between_estimands(self, mu_t1, mu_c0, mu_t_mid, mu_c_mid):
        curve = PotentialOutcomeCurve(
            "m",
            {0.5: mu_t_mid, 1.0: mu_t1},
            {0.0: mu_c0, 0.5: mu_c_mid},
        )
        p = 0.5
        tolerance = 1e-9 + 1e-9 * max(abs(mu_t1), abs(mu_c0), abs(mu_t_mid), abs(mu_c_mid))
        # tau(p) = rho(p) - s(p) by definition.
        assert abs(
            curve.ate(p) - (curve.partial_effect(p) - curve.spillover(p))
        ) <= tolerance
        # TTE = mu_T(1) - mu_C(0).
        assert abs(curve.tte() - (mu_t1 - mu_c0)) <= tolerance
        # Bias identity.
        assert abs(curve.ab_test_bias(p) - (curve.ate(p) - curve.tte())) <= tolerance


class TestEstimatorProperties:
    @given(
        data=st.lists(finite_floats, min_size=2, max_size=50),
        shift=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_difference_in_means_is_shift_equivariant(self, data, shift):
        control = np.array(data)
        treatment = control + shift
        result = difference_in_means(treatment, control)
        assert abs(result.effect.estimate - shift) < 1e-6 * max(1.0, abs(shift))

    @given(
        estimate=finite_floats,
        baseline=st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_relative_effect_scales_linearly(self, estimate, baseline):
        from repro.core.estimators import EstimateWithCI

        absolute = EstimateWithCI(estimate, 1.0, estimate - 2.0, estimate + 2.0)
        relative = relative_effect(absolute, baseline)
        assert abs(relative.estimate * baseline - estimate) < 1e-6 * max(
            1.0, abs(estimate)
        )
        assert relative.ci_low <= relative.ci_high


class TestOutcomeTableProperties:
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=100),
        mask_seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_select_partitions_rows(self, values, mask_seed):
        table = OutcomeTable({"value": values})
        rng = np.random.default_rng(mask_seed)
        mask = rng.random(len(values)) < 0.5
        kept = table.select(mask)
        dropped = table.select(~mask)
        assert len(kept) + len(dropped) == len(table)
        combined = np.concatenate([kept["value"], dropped["value"]])
        assert sorted(combined) == sorted(table["value"])

    @given(values=st.lists(finite_floats, min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_mean_is_within_range(self, values):
        table = OutcomeTable({"value": values})
        slack = 1e-9 + 1e-12 * max(abs(v) for v in values)
        assert min(values) - slack <= table.mean("value") <= max(values) + slack
