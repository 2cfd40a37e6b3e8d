"""Time-varying demand profiles for dynamic traffic.

A demand profile maps simulation time to a non-negative rate multiplier:
arrival processes scale their base rate by ``multiplier(t)``, so the
*intensity* of churn becomes a function of time.  This is the bridge the
paper's time-based designs need — switchback intervals and event-study
windows only reveal their biases when demand actually shifts under them.

Profiles:

* :class:`ConstantDemand` — flat (the default when a source has none);
* :class:`RampDemand` — linear ramp between two levels (the evening
  build-up compressed to simulation scale).

All profiles are frozen dataclasses, so they are picklable and
content-keyable inside :class:`~repro.runner.spec.ScenarioSpec` params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DemandProfile",
    "ConstantDemand",
    "RampDemand",
]


class DemandProfile:
    """Base class mapping simulation time to a rate multiplier."""

    def multiplier(self, t: float) -> float:
        """Rate multiplier at simulation time ``t`` (non-negative)."""
        raise NotImplementedError

    def max_multiplier(self, horizon_s: float) -> float:
        """Upper bound of :meth:`multiplier` over ``[0, horizon_s]``.

        Arrival processes use this as the thinning envelope for
        non-homogeneous Poisson sampling; it must dominate the profile
        on the whole horizon.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDemand(DemandProfile):
    """A flat multiplier (1.0 reproduces the unmodulated process)."""

    level: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.level < math.inf:
            raise ValueError("level must be non-negative and finite")

    def multiplier(self, t: float) -> float:
        """``level`` at every time."""
        return self.level

    def max_multiplier(self, horizon_s: float) -> float:
        """``level``: a flat profile is its own envelope."""
        return self.level


@dataclass(frozen=True)
class RampDemand(DemandProfile):
    """Linear ramp from ``start_level`` to ``end_level`` over [t0, t1]."""

    start_level: float = 1.0
    end_level: float = 2.0
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self) -> None:
        if not (0 <= self.start_level < math.inf and 0 <= self.end_level < math.inf):
            raise ValueError("levels must be non-negative and finite")
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValueError("t0 and t1 must be finite")
        if self.t1 <= self.t0:
            raise ValueError("t1 must exceed t0")

    def multiplier(self, t: float) -> float:
        """``start_level`` before ``t0``, ``end_level`` after ``t1``, linear between."""
        if t <= self.t0:
            return self.start_level
        if t >= self.t1:
            return self.end_level
        frac = (t - self.t0) / (self.t1 - self.t0)
        return self.start_level + frac * (self.end_level - self.start_level)

    def max_multiplier(self, horizon_s: float) -> float:
        """The larger end of the ramp over ``[0, horizon_s]``."""
        return max(self.start_level, self.multiplier(horizon_s))
