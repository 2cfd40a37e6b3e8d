"""Dynamic traffic sources: churning finite flows over the network.

A :class:`TrafficSource` is the declarative description of one class of
dynamic traffic: an arrival process (when flows start), a size sampler
(how much each transfers), an optional demand profile (how the arrival
rate moves over time) and the transport configuration the spawned flows
use (congestion control, pacing, ECN, RTT, path).  The
:class:`~repro.netsim.packet.network.Network` builder turns each source
into senders that spawn at runtime, transfer their sampled size, record
a flow-completion time and retire.

Dynamic flows are *unmeasured* for the per-application throughput
results — like cross traffic, they model the background the experiment
cannot observe — but their lifecycle is fully accounted in
:class:`DynamicTrafficResult` (spawn/completion counts, per-flow FCTs,
delivered bytes), which is how churn itself becomes an observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.netsim.packet.tcp.base import normalize_ecn
from repro.netsim.traffic.arrivals import ArrivalProcess
from repro.netsim.traffic.demand import DemandProfile
from repro.netsim.traffic.sizes import SizeSampler

if TYPE_CHECKING:  # pragma: no cover - the network module imports this one
    from repro.netsim.packet.network import PathConfig

__all__ = ["TrafficSource", "DynamicTrafficResult"]


@dataclass(frozen=True)
class TrafficSource:
    """One class of dynamic (finite, churning) traffic.

    Attributes
    ----------
    arrivals:
        When new flows spawn (Poisson arrivals or a trace).
    sizes:
        Transfer size sampled per spawned flow, in bytes.
    demand:
        Optional time-varying modulation of the arrival rate; ``None``
        keeps the process homogeneous.
    cc, paced, ecn:
        Transport configuration of every spawned flow (``ecn`` accepts
        the same ``False`` / ``True`` / ``"classic"`` / ``"l4s"`` modes
        as :class:`~repro.netsim.packet.simulation.FlowConfig`).
    rtt_ms:
        Propagation delay of spawned flows (``None`` inherits the
        network's base RTT, or the path's).
    path:
        Network path of spawned flows (``None`` means the default
        bottleneck).
    label:
        Key of this source's :class:`DynamicTrafficResult` in the
        simulation results; empty labels become ``"source<i>"``.
    """

    arrivals: ArrivalProcess
    sizes: SizeSampler
    demand: DemandProfile | None = None
    cc: str = "reno"
    paced: bool = False
    ecn: bool | str = False
    rtt_ms: float | None = None
    path: PathConfig | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.rtt_ms is not None and not 0 < self.rtt_ms < math.inf:
            raise ValueError("rtt_ms must be positive and finite")
        normalize_ecn(self.ecn)  # reject invalid modes at config time


@dataclass
class DynamicTrafficResult:
    """Lifecycle outcomes of one traffic source over a simulation run.

    Attributes
    ----------
    label:
        The source's label (``"source<i>"`` when it did not set one).
    flows_started:
        Flows that spawned within the simulated horizon.
    flows_completed:
        Of those, the ones that delivered their full transfer before the
        simulation ended.
    completion_times_s:
        Flow-completion times (completion minus arrival) of the
        completed flows, in spawn order; the simulation result's
        :meth:`~repro.netsim.packet.network.PacketSimResult.mean_dynamic_fct_s`
        and ``dynamic_fct_percentile`` summarize them across sources.
    bytes_acked:
        Bytes delivered across all of the source's flows, including the
        ones still in progress at the end.
    """

    label: str
    flows_started: int = 0
    flows_completed: int = 0
    completion_times_s: tuple[float, ...] = field(default_factory=tuple)
    bytes_acked: int = 0

