"""Dynamic-traffic subsystem: finite flows, arrivals, churn and demand.

Everything the static packet simulator assumed away: flows that start
mid-simulation, transfer a finite (heavy-tailed) number of bytes, record
a flow-completion time and retire; arrival processes (Poisson, traces)
whose intensity can follow a time-varying demand profile (constant or a
ramp).

Attach a :class:`TrafficSource` to a simulation via
``simulate(..., traffic_sources=[...])`` or
:meth:`repro.netsim.packet.network.Network.add_traffic_source`; per-source
lifecycle results come back in ``PacketSimResult.traffic``.
"""

from repro.netsim.traffic.arrivals import (
    ArrivalProcess,
    PoissonArrivals,
    TraceArrivals,
)
from repro.netsim.traffic.demand import (
    ConstantDemand,
    DemandProfile,
    RampDemand,
)
from repro.netsim.traffic.sizes import FixedSizes, ParetoSizes, SizeSampler
from repro.netsim.traffic.source import DynamicTrafficResult, TrafficSource

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "TraceArrivals",
    "DemandProfile",
    "ConstantDemand",
    "RampDemand",
    "SizeSampler",
    "FixedSizes",
    "ParetoSizes",
    "TrafficSource",
    "DynamicTrafficResult",
]
