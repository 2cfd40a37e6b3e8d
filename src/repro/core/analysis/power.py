"""Power calculations for experiment sizing.

Section 5.2 of the paper notes that the allocation size of a switchback (or
any other design) "should be large enough to give statistically significant
results, and can be determined by a power calculation".  This module
provides the standard two-sample normal-approximation power machinery:

* :func:`required_sample_size` — units per arm needed to detect a given
  effect with a given power.
* :func:`minimum_detectable_effect` — the smallest effect detectable with a
  given sample size and power.
* :func:`switchback_intervals_needed` — the same calculation expressed in
  switchback intervals, where each interval contributes a single effective
  observation (the paper's worst-case within-interval correlation
  assumption).
"""

from __future__ import annotations

import math

from scipy import special

__all__ = [
    "required_sample_size",
    "minimum_detectable_effect",
    "switchback_intervals_needed",
]


def _z_sum(power: float, significance: float, two_sided: bool) -> float:
    """``z_{1-alpha} + z_{power}``, with ``alpha`` halved when two-sided."""
    if not 0.0 < power < 1.0:
        raise ValueError("power must be in (0, 1)")
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must be in (0, 1)")
    alpha = significance / 2.0 if two_sided else significance
    return float(special.ndtri(1.0 - alpha)) + float(special.ndtri(power))


def required_sample_size(
    effect_size: float,
    std_dev: float,
    power: float = 0.8,
    significance: float = 0.05,
    two_sided: bool = True,
) -> int:
    """Units per arm required to detect ``effect_size`` (absolute units).

    Uses the classical normal-approximation formula

    .. math:: n = 2 (z_{1-\\alpha/2} + z_{power})^2 \\sigma^2 / \\Delta^2
    """
    if effect_size == 0:
        raise ValueError("effect_size must be non-zero")
    if std_dev <= 0:
        raise ValueError("std_dev must be positive")
    z_sum = _z_sum(power, significance, two_sided)
    n = 2.0 * z_sum**2 * (std_dev / effect_size) ** 2
    return int(math.ceil(n))


def minimum_detectable_effect(
    n_per_arm: int,
    std_dev: float,
    power: float = 0.8,
    significance: float = 0.05,
    two_sided: bool = True,
) -> float:
    """Smallest absolute effect detectable with ``n_per_arm`` units per arm."""
    if n_per_arm <= 0:
        raise ValueError("n_per_arm must be positive")
    if std_dev <= 0:
        raise ValueError("std_dev must be positive")
    z_sum = _z_sum(power, significance, two_sided)
    return float(z_sum * std_dev * math.sqrt(2.0 / n_per_arm))


def switchback_intervals_needed(
    effect_size: float,
    interval_std_dev: float,
    power: float = 0.8,
    significance: float = 0.05,
) -> int:
    """Total switchback intervals required to detect ``effect_size``.

    Under the paper's conservative analysis each interval is one effective
    observation, so the calculation is the two-sample formula applied to
    interval means, and the result is the total number of intervals (half
    of which are treatment intervals in expectation).
    """
    per_arm = required_sample_size(
        effect_size, interval_std_dev, power=power, significance=significance
    )
    return 2 * per_arm
