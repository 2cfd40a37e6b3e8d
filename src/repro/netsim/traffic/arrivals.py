"""Flow arrival processes for dynamic traffic.

An arrival process turns a seeded RNG and a simulation horizon into the
times at which new finite flows enter the network, optionally under a
:class:`~repro.netsim.traffic.demand.DemandProfile` that modulates the
instantaneous arrival rate over time:

* :class:`PoissonArrivals` — memoryless arrivals at ``rate_per_s``; the
  canonical model for independent user sessions.  Demand modulation is
  implemented by thinning, so the modulated process is still exact;
* :class:`TraceArrivals` — replay an explicit list of arrival instants
  (a measured trace); demand modulation does not apply to traces.

Arrival times are generated *before* the simulation runs and scheduled
on the event scheduler, so the sequence is a pure function of the seed —
independent of event interleaving, worker count and queue behaviour.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.netsim.traffic.demand import DemandProfile

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "TraceArrivals",
]


class ArrivalProcess:
    """Base class for flow arrival processes."""

    def arrival_times(
        self,
        rng: random.Random,
        horizon_s: float,
        demand: DemandProfile | None = None,
    ) -> list[float]:
        """Arrival instants in ``[0, horizon_s)``, sorted ascending."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate_per_s`` flows per second.

    Under a demand profile the arrivals are an exact non-homogeneous
    Poisson process: a homogeneous process at the envelope rate keeps
    each candidate with probability ``multiplier(t) / max_multiplier``
    (Lewis & Shedler thinning).
    """

    rate_per_s: float

    def __post_init__(self) -> None:
        if not 0 <= self.rate_per_s < math.inf:
            # An infinite or NaN rate would never let arrival_times return.
            raise ValueError("rate_per_s must be finite and non-negative")

    def arrival_times(
        self,
        rng: random.Random,
        horizon_s: float,
        demand: DemandProfile | None = None,
    ) -> list[float]:
        """Poisson arrivals in ``[0, horizon_s)``, thinned under ``demand``."""
        if self.rate_per_s <= 0.0 or horizon_s <= 0.0:
            return []
        envelope = 1.0 if demand is None else demand.max_multiplier(horizon_s)
        if envelope <= 0.0:
            return []
        max_rate = self.rate_per_s * envelope
        times: list[float] = []
        t = 0.0
        while True:
            t += rng.expovariate(max_rate)
            if t >= horizon_s:
                return times
            if demand is not None:
                accept = self.rate_per_s * demand.multiplier(t) / max_rate
                if rng.random() >= accept:
                    continue
            times.append(t)


@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Replay explicit arrival instants (a measured trace).

    Times outside ``[0, horizon_s)`` are dropped; demand modulation is
    ignored — the trace already *is* the realized demand.
    """

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(t < 0 or not math.isfinite(t) for t in self.times):
            raise ValueError("trace times must be finite and non-negative")
        object.__setattr__(self, "times", tuple(sorted(float(t) for t in self.times)))

    def arrival_times(
        self,
        rng: random.Random,
        horizon_s: float,
        demand: DemandProfile | None = None,
    ) -> list[float]:
        """The trace's instants before ``horizon_s``; ``rng`` and ``demand`` are unused."""
        return [t for t in self.times if t < horizon_s]
