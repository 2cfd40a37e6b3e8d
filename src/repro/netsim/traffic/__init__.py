"""Dynamic-traffic subsystem: finite flows, arrivals, churn and demand.

Everything the static packet simulator assumed away: flows that start
mid-simulation, transfer a finite (heavy-tailed) number of bytes, record
a flow-completion time and retire; arrival processes (Poisson, traces)
whose intensity can follow a time-varying demand profile (constant or a
ramp).

Attach a :class:`~repro.netsim.traffic.source.TrafficSource` to a
simulation via ``simulate(..., traffic_sources=[...])`` or
:meth:`repro.netsim.packet.network.Network.add_traffic_source`; per-source
lifecycle results come back in ``PacketSimResult.traffic``.
"""
