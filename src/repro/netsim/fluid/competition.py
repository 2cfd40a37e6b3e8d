"""Bandwidth-sharing and loss models for the fluid simulator.

The fluid model computes long-term average behaviour of long-lived flows
sharing one bottleneck.  It encodes three well-established empirical
results that the paper's lab experiments rest on:

1. **Per-connection fairness of loss-based TCP.**  ``n`` identical
   loss-based connections each receive ``C / n``; an application opening
   two connections receives twice the throughput of one opening a single
   connection (Balakrishnan et al. 1998, Briscoe 2007).

2. **Unpaced traffic outcompetes paced traffic.**  A paced Reno connection
   sharing a drop-tail bottleneck with unpaced Reno connections obtains a
   substantially lower share (Aggarwal et al. 2000, Wei et al. 2006); the
   paper's lab measures roughly 50 % lower throughput.

3. **BBR's aggregate share against loss-based traffic is roughly
   independent of flow counts.**  With a ~1 BDP buffer, the BBR aggregate
   claims a fixed fraction of the link when competing against Cubic,
   regardless of how many flows are on each side (Ware et al. 2019).

Retransmission rates come from the square-root TCP loss-throughput
relationship: a loss-based connection running at rate ``r`` over round-trip
time ``RTT`` with segment size ``S`` experiences a loss probability of
about ``1.5 (S / (RTT * r))^2``.  Pacing reduces the drop rate further by
removing burst losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.netsim.fluid.application import Application
from repro.netsim.fluid.link import BottleneckLink

__all__ = [
    "CompetitionModel",
    "UnitColumns",
    "allocate_throughput",
    "allocate_throughput_reference",
    "link_loss_rate",
    "link_loss_rate_reference",
    "weighted_water_fill",
    "weighted_water_fill_reference",
]


@dataclass(frozen=True)
class CompetitionModel:
    """Parameters of the fluid sharing and loss models.

    Attributes
    ----------
    paced_weight:
        Relative competitive weight of a paced loss-based connection against
        an unpaced one (0.5 reproduces the ~50 % lower throughput the paper
        measures).
    bbr_aggregate_share:
        Fraction of the link the BBR aggregate claims when at least one BBR
        flow competes with at least one loss-based flow (Ware et al. report
        ~0.35-0.45 for 1-BDP buffers).
    pacing_loss_floor:
        Fraction of the baseline loss rate that remains when all traffic is
        paced (burst losses eliminated, only congestive losses remain).
    cubic_weight:
        Relative competitive weight of a Cubic connection against Reno.
        Kept at 1.0: the paper's lab never mixes the two directly.
    """

    paced_weight: float = 0.5
    bbr_aggregate_share: float = 0.4
    pacing_loss_floor: float = 0.25
    cubic_weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.paced_weight <= 1.0:
            raise ValueError("paced_weight must be in (0, 1]")
        if not 0.0 < self.bbr_aggregate_share < 1.0:
            raise ValueError("bbr_aggregate_share must be in (0, 1)")
        if not 0.0 < self.pacing_loss_floor <= 1.0:
            raise ValueError("pacing_loss_floor must be in (0, 1]")
        if not 0.0 < self.cubic_weight < math.inf:
            raise ValueError("cubic_weight must be positive and finite")

    def connection_weight(self, app: Application) -> float:
        """Competitive weight of one of the application's connections."""
        weight = 1.0
        if app.cc == "cubic":
            weight *= self.cubic_weight
        if app.paced and app.is_loss_based:
            weight *= self.paced_weight
        return weight


def _validate(app_ids: Sequence[int]) -> None:
    """Shared argument validation for the allocation entry points."""
    if not app_ids:
        raise ValueError("at least one application is required")
    if len(set(app_ids)) != len(app_ids):
        raise ValueError("application ids must be unique")


@dataclass(frozen=True, eq=False)
class UnitColumns:
    """Applications as columns: the fluid model's working set.

    Entry ``i`` of every array describes unit ``i``.  A lab sweep builds
    one record from its treated and one from its control applications,
    and each arm picks its units from the two with :meth:`where`, so no
    :class:`Application` is built or copied per arm.

    Attributes
    ----------
    app_id:
        Application ids (unique within one allocation).
    connections:
        Parallel TCP connections of each unit, as floats.
    is_bbr, cubic, paced:
        Whether each unit runs BBR, runs Cubic, or paces its connections.
    """

    app_id: np.ndarray
    connections: np.ndarray
    is_bbr: np.ndarray
    cubic: np.ndarray
    paced: np.ndarray

    @classmethod
    def from_applications(cls, applications: Sequence[Application]) -> "UnitColumns":
        """The columns of an application list, in list order."""
        return cls(
            app_id=np.array([a.app_id for a in applications], dtype=np.int64),
            connections=np.array([a.connections for a in applications], dtype=float),
            is_bbr=np.array([a.cc == "bbr" for a in applications], dtype=bool),
            cubic=np.array([a.cc == "cubic" for a in applications], dtype=bool),
            paced=np.array([a.paced for a in applications], dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.app_id)

    def where(self, mask: np.ndarray, other: "UnitColumns") -> "UnitColumns":
        """Unit ``i`` of ``self`` where ``mask[i]`` holds, of ``other`` elsewhere."""
        return UnitColumns(
            app_id=np.where(mask, self.app_id, other.app_id),
            connections=np.where(mask, self.connections, other.connections),
            is_bbr=np.where(mask, self.is_bbr, other.is_bbr),
            cubic=np.where(mask, self.cubic, other.cubic),
            paced=np.where(mask, self.paced, other.paced),
        )

    def weights(self, model: CompetitionModel) -> np.ndarray:
        """Each unit's competitive weight: connections times the weight of
        one of its connections, and 0 for BBR units."""
        per_connection = np.where(self.cubic, model.cubic_weight, 1.0)
        paced = self.paced & ~self.is_bbr
        per_connection = np.where(paced, per_connection * model.paced_weight, per_connection)
        return np.where(self.is_bbr, 0.0, self.connections * per_connection)


def allocate_throughput(
    link: BottleneckLink,
    units: UnitColumns,
    model: CompetitionModel | None = None,
) -> np.ndarray:
    """Long-term average throughput (Mb/s) of each unit, in unit order.

    The allocation first splits capacity between the BBR aggregate and the
    loss-based aggregate (see :class:`CompetitionModel`), then divides each
    aggregate among its connections in proportion to their competitive
    weights, and finally sums an application's connections.

    The work is numpy over the unit columns (no per-application Python
    loop); :func:`allocate_throughput_reference` keeps the scalar path,
    pinned equal to this one by tests.
    """
    _validate(units.app_id.tolist())
    model = model or CompetitionModel()
    connections, is_bbr = units.connections, units.is_bbr
    weights = units.weights(model)
    n_bbr = float(connections[is_bbr].sum())
    loss_weight = float(weights.sum())
    capacity = link.capacity_mbps
    if n_bbr > 0 and loss_weight > 0:
        bbr_capacity = capacity * model.bbr_aggregate_share
        loss_capacity = capacity - bbr_capacity
    elif n_bbr > 0:
        bbr_capacity, loss_capacity = capacity, 0.0
    else:
        bbr_capacity, loss_capacity = 0.0, capacity
    bbr_share = connections * (bbr_capacity / n_bbr) if n_bbr else connections * 0.0
    loss_share = weights * (loss_capacity / loss_weight) if loss_weight else weights * 0.0
    return np.where(is_bbr, bbr_share, loss_share)


def allocate_throughput_reference(
    link: BottleneckLink,
    applications: Sequence[Application],
    model: CompetitionModel | None = None,
) -> dict[int, float]:
    """Scalar (per-application Python loop) reference for :func:`allocate_throughput`."""
    _validate([a.app_id for a in applications])
    model = model or CompetitionModel()

    n_bbr = sum(a.connections for a in applications if a.cc == "bbr")
    loss_weight = sum(
        a.connections * model.connection_weight(a)
        for a in applications
        if a.is_loss_based
    )
    capacity = link.capacity_mbps
    if n_bbr > 0 and loss_weight > 0:
        bbr_capacity = capacity * model.bbr_aggregate_share
        loss_capacity = capacity - bbr_capacity
    elif n_bbr > 0:
        bbr_capacity, loss_capacity = capacity, 0.0
    else:
        bbr_capacity, loss_capacity = 0.0, capacity

    throughput: dict[int, float] = {}
    for app in applications:
        if app.cc == "bbr":
            per_connection = bbr_capacity / n_bbr if n_bbr else 0.0
            throughput[app.app_id] = per_connection * app.connections
        else:
            weight = app.connections * model.connection_weight(app)
            share = weight / loss_weight if loss_weight else 0.0
            throughput[app.app_id] = loss_capacity * share
    return throughput


def link_loss_rate(
    link: BottleneckLink,
    units: UnitColumns,
    shares: np.ndarray,
    model: CompetitionModel | None = None,
) -> float:
    """Steady-state packet loss (retransmission) rate at the bottleneck.

    ``shares`` is :func:`allocate_throughput` of the same ``units``.  All
    flows cross the same drop-tail queue, so every application observes
    (approximately) the same loss rate — this is why the within-test
    retransmission comparison in the paper's lab A/B tests shows no
    difference between arms even when the total loss rate changes a lot
    with the treatment allocation.

    The rate is the TCP loss-throughput relationship evaluated at the mean
    per-connection rate of the loss-based aggregate (the shared kernel
    :meth:`BottleneckLink.loss_probability`), scaled down as the fraction
    of paced bytes grows (pacing removes burst drops).  When only BBR
    traffic is present, the loss rate is BBR's ~2x-BDP overshoot loss,
    which is small for a 1-BDP buffer.
    """
    if shares.shape != units.connections.shape:
        raise ValueError("shares must hold one value per unit")
    model = model or CompetitionModel()
    loss_based = ~units.is_bbr
    if not loss_based.any():
        # BBR-only: losses come from BBR's periodic probing overshooting the
        # 1-BDP buffer; small and independent of the number of flows.
        return 0.001

    total_loss_connections = float(units.connections[loss_based].sum())
    total_loss_throughput = float(shares[loss_based].sum())
    per_connection_mbps = total_loss_throughput / total_loss_connections
    if per_connection_mbps <= 0:
        return 1.0

    p = link.loss_probability(per_connection_mbps)

    paced_bytes = float(shares[loss_based & units.paced].sum())
    paced_fraction = paced_bytes / total_loss_throughput if total_loss_throughput else 0.0
    burst_factor = model.pacing_loss_floor + (1.0 - model.pacing_loss_floor) * (
        1.0 - paced_fraction
    )
    return p * burst_factor


def link_loss_rate_reference(
    link: BottleneckLink,
    applications: Sequence[Application],
    model: CompetitionModel | None = None,
) -> float:
    """Scalar (per-application Python loop) reference for :func:`link_loss_rate`."""
    _validate([a.app_id for a in applications])
    model = model or CompetitionModel()

    throughput = allocate_throughput_reference(link, applications, model)
    loss_based = [a for a in applications if a.is_loss_based]
    if not loss_based:
        return 0.001

    total_loss_connections = sum(a.connections for a in loss_based)
    total_loss_throughput = sum(throughput[a.app_id] for a in loss_based)
    per_connection_mbps = total_loss_throughput / total_loss_connections
    if per_connection_mbps <= 0:
        return 1.0

    p = link.loss_probability(per_connection_mbps)

    paced_bytes = sum(throughput[a.app_id] for a in loss_based if a.paced)
    paced_fraction = paced_bytes / total_loss_throughput if total_loss_throughput else 0.0
    burst_factor = model.pacing_loss_floor + (1.0 - model.pacing_loss_floor) * (
        1.0 - paced_fraction
    )
    return p * burst_factor


def weighted_water_fill(
    capacity: float,
    demands: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Weighted max-min fair allocation of ``capacity`` among ``demands``.

    Entity ``i`` receives ``min(demand_i, level * weight_i)`` where the
    water level is set so allocations sum to ``capacity`` (or every demand
    is met).  This is the fluid step of the fleet hybrid: one call shares a
    region aggregation link among its member edges, a second shares the
    backbone among regions — each call is O(n log n) numpy with no Python
    loop.  :func:`weighted_water_fill_reference` is the scalar reference.
    """
    demands = np.asarray(demands, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if demands.shape != weights.shape:
        raise ValueError("demands and weights must have the same shape")
    if (demands < 0).any() or (weights <= 0).any():
        raise ValueError("demands must be >= 0 and weights > 0")
    if capacity <= 0:
        return np.zeros_like(demands)
    total_demand = float(demands.sum())
    if total_demand <= capacity:
        return demands.copy()

    # Sort by saturation level demand/weight; walk the breakpoints to find
    # where the water level settles, all in prefix-sum form.
    ratio = demands / weights
    order = np.argsort(ratio, kind="stable")
    d_sorted = demands[order]
    w_sorted = weights[order]
    ratio_sorted = ratio[order]
    demand_before = np.concatenate([[0.0], np.cumsum(d_sorted)[:-1]])
    weight_after = weights.sum() - np.concatenate([[0.0], np.cumsum(w_sorted)[:-1]])
    # level_k: water level if exactly the first k entities saturate.
    with np.errstate(divide="ignore"):
        level_k = (capacity - demand_before) / weight_after
    # The first breakpoint whose level no longer saturates its own entity.
    unsaturated = level_k <= ratio_sorted
    k = int(np.argmax(unsaturated)) if unsaturated.any() else len(demands)
    level = level_k[k] if k < len(demands) else ratio_sorted[-1]
    return np.minimum(demands, level * weights)


def weighted_water_fill_reference(
    capacity: float,
    demands: Sequence[float],
    weights: Sequence[float],
) -> np.ndarray:
    """Iterative scalar water-filling, the reference for :func:`weighted_water_fill`."""
    demands = np.asarray(demands, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if demands.shape != weights.shape:
        raise ValueError("demands and weights must have the same shape")
    if (demands < 0).any() or (weights <= 0).any():
        raise ValueError("demands must be >= 0 and weights > 0")
    allocation = np.zeros_like(demands)
    if capacity <= 0:
        return allocation
    remaining = float(capacity)
    active = [i for i in range(len(demands)) if demands[i] > 0]
    while active and remaining > 1e-12:
        active_weight = sum(float(weights[i]) for i in active)
        level = remaining / active_weight
        saturated = [i for i in active if demands[i] - allocation[i] <= level * weights[i]]
        if not saturated:
            for i in active:
                allocation[i] += level * weights[i]
            break
        for i in saturated:
            remaining -= float(demands[i] - allocation[i])
            allocation[i] = float(demands[i])
        active = [i for i in active if i not in saturated]
    return allocation
