"""Declarative description of a sharded fleet experiment.

A fleet is ``units`` bulk-transfer senders spread over ``edges``
independent edge bottlenecks (one packet simulation each), grouped into
``regions`` whose aggregation links — and the backbone above them — are
approximated by the vectorized fluid model
(:mod:`repro.netsim.fleet.hybrid`).  The A/B treatment is the paper's
multiple-connections intervention; ``granularity`` controls the
randomization unit (``"unit"``, ``"edge"`` or ``"region"``), which is
exactly the cluster-size axis of the paper's bias question, now at fleet
scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["FleetSpec", "GRANULARITIES", "fleet_assignment"]

#: Supported randomization granularities, finest to coarsest.
GRANULARITIES: tuple[str, ...] = ("unit", "edge", "region")


@dataclass(frozen=True)
class FleetSpec:
    """Configuration of one fleet run.

    Parameters
    ----------
    units:
        Total experimental units (bulk senders) in the fleet.  Spread
        over edges as evenly as possible (the first ``units % edges``
        edges hold one extra unit).
    edges:
        Independent edge bottlenecks; each runs one packet simulation.
    regions:
        Aggregation groups of edges.  Edges are assigned to regions in
        contiguous blocks.
    granularity:
        Randomization unit: ``"unit"``, ``"edge"`` or ``"region"``.
    allocation:
        Treated fraction of clusters (balanced assignment: exactly
        ``round(allocation * clusters)`` clusters are treated).
    treatment_connections, control_connections:
        Parallel TCP connections a treated/control unit opens — the
        paper's Figure 2a intervention.
    edge_capacity_mbps:
        Capacity of every edge bottleneck.
    region_oversubscription:
        Region aggregation-link capacity as a fraction of the summed
        capacity of its member edges.  Values below 1 make edges within a
        region compete (the coupling that edge-granularity assignment is
        exposed to); 1 or more leaves region links uncongested.
    backbone_oversubscription:
        Backbone capacity as a fraction of the summed region-link
        capacities.  At the default (>= 1) the backbone never binds and
        region-granularity assignment is interference-free.
    rtt_profile_ms:
        Edge round-trip times, cycled over edges (edge ``e`` gets
        ``rtt_profile_ms[e % len]``) — the heterogeneity that makes
        shards genuinely distinct simulations.
    backbone_rtt_ms:
        Extra two-way propagation every unit pays for crossing the core.
    backbone_queue_delay_ms:
        Standing queueing delay added on paths through a *saturated*
        region link (its drop-tail buffer is full in steady state).
    buffer_bdp:
        Edge bottleneck buffer in bandwidth-delay products.
    duration_s, warmup_s:
        Simulated horizon of every shard and the measurement warm-up.
    churn_per_s:
        Per-edge arrival rate of dynamic short flows (Poisson arrivals,
        Pareto sizes).  Their completion times feed the fleet's FCT
        sketch; 0 disables churn.
    sketch_compression:
        Compression factor of the per-cell quantile sketches
        (:class:`repro.core.analysis.sketch.QuantileSketch`).
    probe_interval_s:
        Sim-time cadence of in-shard queue-depth probing, in seconds.
        0 (default) disables probing; when positive every shard samples
        its edge queue at this cadence and folds the depths into the
        ``fleet:queue_depth_pkts`` cell.  Probing never perturbs shard
        results and the knob is inert in content keys when 0.
    seed:
        Master seed: the treatment assignment and every shard's derived
        seed are pure functions of it.
    """

    units: int
    edges: int
    regions: int = 4
    granularity: str = "unit"
    allocation: float = 0.5
    treatment_connections: int = 2
    control_connections: int = 1
    edge_capacity_mbps: float = 24.0
    region_oversubscription: float = 0.7
    backbone_oversubscription: float = 1.25
    rtt_profile_ms: tuple[float, ...] = (10.0, 20.0, 40.0, 80.0)
    backbone_rtt_ms: float = 20.0
    backbone_queue_delay_ms: float = 10.0
    buffer_bdp: float = 2.0
    duration_s: float = 4.0
    warmup_s: float = 1.0
    churn_per_s: float = 0.0
    sketch_compression: int = 100
    probe_interval_s: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.units < 1:
            raise ValueError("units must be positive")
        if not 1 <= self.edges <= self.units:
            raise ValueError("edges must be in [1, units]")
        if not 1 <= self.regions <= self.edges:
            raise ValueError("regions must be in [1, edges]")
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {GRANULARITIES}, got {self.granularity!r}"
            )
        if not 0.0 <= self.allocation <= 1.0:
            raise ValueError("allocation must be in [0, 1]")
        if self.treatment_connections < 1 or self.control_connections < 1:
            raise ValueError("connection counts must be at least 1")
        if self.edge_capacity_mbps <= 0:
            raise ValueError("edge_capacity_mbps must be positive")
        if self.region_oversubscription <= 0 or self.backbone_oversubscription <= 0:
            raise ValueError("oversubscription factors must be positive")
        if not self.rtt_profile_ms or any(r <= 0 for r in self.rtt_profile_ms):
            raise ValueError("rtt_profile_ms must be non-empty and positive")
        if self.duration_s <= self.warmup_s:
            raise ValueError("duration_s must exceed warmup_s")
        if self.churn_per_s < 0:
            raise ValueError("churn_per_s must be non-negative")
        if self.probe_interval_s < 0:
            raise ValueError("probe_interval_s must be non-negative")

    # -- fleet geometry ------------------------------------------------

    def units_on_edge(self, edge: int) -> int:
        """Number of units homed on the given edge."""
        base, extra = divmod(self.units, self.edges)
        return base + (1 if edge < extra else 0)

    def first_unit_on_edge(self, edge: int) -> int:
        """Global id of the first unit homed on the given edge."""
        base, extra = divmod(self.units, self.edges)
        return edge * base + min(edge, extra)

    def region_of(self, edge: int) -> int:
        """Region of the given edge (contiguous blocks of edges)."""
        return edge * self.regions // self.edges

    def edge_rtt_ms(self, edge: int) -> float:
        """Round-trip time of the given edge's bottleneck."""
        return self.rtt_profile_ms[edge % len(self.rtt_profile_ms)]

    def clusters(self) -> int:
        """Number of randomization clusters at this spec's granularity."""
        return {
            "unit": self.units,
            "edge": self.edges,
            "region": self.regions,
        }[self.granularity]

    def cluster_size(self) -> float:
        """Mean units per randomization cluster."""
        return self.units / self.clusters()


def fleet_assignment(spec: FleetSpec) -> list[tuple[bool, ...]]:
    """Balanced treatment assignment, one mask of unit flags per edge.

    Exactly ``round(allocation * clusters)`` clusters are treated,
    sampled without replacement from a deterministic RNG seeded by the
    spec's master seed and granularity — the same derivation idiom as the
    packet sweep, so assignments are reproducible across processes and
    platforms.
    """
    rng = random.Random(f"fleet-assign:{spec.seed}:{spec.granularity}")
    n_clusters = spec.clusters()
    n_treated = round(spec.allocation * n_clusters)
    treated_clusters = frozenset(rng.sample(range(n_clusters), n_treated))

    masks: list[tuple[bool, ...]] = []
    for edge in range(spec.edges):
        n_units = spec.units_on_edge(edge)
        if spec.granularity == "edge":
            flag = edge in treated_clusters
            masks.append((flag,) * n_units)
        elif spec.granularity == "region":
            flag = spec.region_of(edge) in treated_clusters
            masks.append((flag,) * n_units)
        else:
            first = spec.first_unit_on_edge(edge)
            masks.append(
                tuple(first + i in treated_clusters for i in range(n_units))
            )
    return masks
