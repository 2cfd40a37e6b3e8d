"""Normal and Student-t quantiles: ``scipy.special`` against ``scipy.stats``.

The package computes its quantiles with ``scipy.special.ndtri`` and
``scipy.special.stdtrit`` so that importing it does not load
``scipy.stats``.  Every interval and sample size must stay bit-identical
to the ``scipy.stats`` formula, so each case compares with exact ``==``.
"""

import math

import numpy as np
import pytest
from scipy import stats

from repro.campaign.run import confidence_half_width
from repro.core.analysis.power import minimum_detectable_effect, required_sample_size
from repro.core.analysis.regression import ols
from repro.core.estimators import difference_in_means

LEVELS = (0.8, 0.9, 0.95, 0.99)


def z_two_sided(confidence):
    return float(stats.norm.ppf(0.5 + confidence / 2.0))


@pytest.mark.parametrize("confidence", LEVELS)
def test_difference_in_means_bounds(confidence):
    rng = np.random.default_rng(11)
    effect = difference_in_means(
        rng.normal(1.0, 2.0, 300), rng.normal(0.0, 1.5, 250), confidence=confidence
    ).effect
    z = z_two_sided(confidence)
    assert effect.ci_low == effect.estimate - z * effect.std_error
    assert effect.ci_high == effect.estimate + z * effect.std_error


@pytest.mark.parametrize("confidence", LEVELS)
def test_ols_confidence_interval(confidence):
    rng = np.random.default_rng(5)
    x = rng.normal(size=200)
    fit = ols(
        np.column_stack([np.ones(200), x]),
        0.3 + 0.7 * x + rng.normal(0.0, 0.5, 200),
        ("intercept", "beta"),
        hac_max_lag=3,
    )
    ci = fit.confidence_interval("beta", confidence=confidence)
    est, se = fit.coefficient("beta"), fit.std_error("beta")
    z = z_two_sided(confidence)
    assert (ci.ci_low, ci.ci_high) == (est - z * se, est + z * se)


@pytest.mark.parametrize("power", [0.5, 0.8, 0.9, 0.99])
@pytest.mark.parametrize("significance", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("two_sided", [True, False])
def test_power_calculations(power, significance, two_sided):
    alpha = significance / 2.0 if two_sided else significance
    z_sum = float(stats.norm.ppf(1.0 - alpha)) + float(stats.norm.ppf(power))
    levels = dict(power=power, significance=significance, two_sided=two_sided)
    assert required_sample_size(0.3, 2.0, **levels) == math.ceil(2.0 * z_sum**2 * (2.0 / 0.3) ** 2)
    assert minimum_detectable_effect(400, 2.0, **levels) == z_sum * 2.0 * math.sqrt(2.0 / 400)


@pytest.mark.parametrize("confidence", LEVELS)
def test_confidence_half_width(confidence):
    rng = np.random.default_rng(7)
    for n in range(2, 62):
        values = rng.normal(5.0, 3.0, n)
        std = float(np.std(values, ddof=1))
        t = stats.t.ppf(0.5 + confidence / 2.0, n - 1)
        assert confidence_half_width(values, confidence) == float(t * std / np.sqrt(n))


@pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5])
def test_confidence_half_width_level_outside_unit_interval_raises(confidence):
    with pytest.raises(ValueError):
        confidence_half_width(np.arange(10.0), confidence)
