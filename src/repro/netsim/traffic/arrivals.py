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


def _thinned_poisson(
    rng: random.Random,
    rate_per_s: float,
    start_s: float,
    end_s: float,
    demand: DemandProfile | None,
    horizon_s: float,
) -> list[float]:
    """Exact non-homogeneous Poisson arrivals on ``[start_s, end_s)``.

    Samples a homogeneous process at the envelope rate and keeps each
    candidate with probability ``multiplier(t) / max_multiplier`` —
    Lewis & Shedler thinning.
    """
    if rate_per_s <= 0.0 or end_s <= start_s:
        return []
    envelope = 1.0 if demand is None else demand.max_multiplier(horizon_s)
    if envelope <= 0.0:
        return []
    max_rate = rate_per_s * envelope
    times: list[float] = []
    t = start_s
    while True:
        t += rng.expovariate(max_rate)
        if t >= end_s:
            return times
        if demand is not None:
            accept = rate_per_s * demand.multiplier(t) / max_rate
            if rng.random() >= accept:
                continue
        times.append(t)


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate_per_s`` flows per second."""

    rate_per_s: float

    def __post_init__(self) -> None:
        if self.rate_per_s < 0:
            raise ValueError("rate_per_s must be non-negative")

    def arrival_times(
        self,
        rng: random.Random,
        horizon_s: float,
        demand: DemandProfile | None = None,
    ) -> list[float]:
        return _thinned_poisson(rng, self.rate_per_s, 0.0, horizon_s, demand, horizon_s)


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
        return [t for t in self.times if t < horizon_s]
