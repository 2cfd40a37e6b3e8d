"""The fleet engine: fan shards out, stream statistics back.

``run_fleet`` turns a :class:`~repro.netsim.fleet.spec.FleetSpec` into
one :class:`~repro.runner.spec.ScenarioSpec` per edge (task
``fleet.shard_arm``), runs the fluid coupling passes to fix each shard's
effective capacity / upstream loss / path delay, and fans the shards out
through the existing :class:`~repro.runner.executor.ParallelExecutor` /
``ResultCache`` stack.

Two properties the tests pin:

* **Content-key dedupe.**  Shards with identical parameters (same unit
  count, treatment pattern, RTT band, coupling, derived seed) have
  identical content keys and are simulated once; homogeneous
  granularities (edge/region, and the all-treated / all-control
  counterfactual fleets) collapse from hundreds of simulations to a
  handful, which is what makes counterfactual truth affordable at fleet
  scale.  Results are reused per key, never re-run.
* **Deterministic merge.**  Shard statistics are folded in edge order,
  so the merged result is bit-identical for any worker count; each
  shard's seed derives from the master seed and its edge index (and is
  ``None`` when the shard consumes no randomness, maximizing cache
  hits — the packet sweep's seed-normalization idiom).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

import repro.netsim.fleet.shard  # noqa: F401  (registers the fleet.shard_arm task)
from repro.netsim.fleet.aggregate import ShardStats, cell_key
from repro.netsim.fleet.hybrid import FleetCoupling, couple_fleet
from repro.netsim.fleet.spec import FleetSpec, fleet_assignment
from repro.runner.executor import ParallelExecutor
from repro.runner.spec import ScenarioSpec, content_key

__all__ = ["FleetResult", "run_fleet", "shard_specs"]


@dataclass
class FleetResult:
    """A fleet run reduced to merged sufficient statistics."""

    spec: FleetSpec
    stats: ShardStats
    coupling: FleetCoupling
    #: Distinct shard simulations actually run (after content-key dedupe).
    unique_sims: int

    def mean(self, arm: str, metric: str) -> float:
        """Fleet-wide mean of a per-unit metric in one arm."""
        return self.stats.cell(arm, metric).stats.mean

    def quantile(self, arm: str, metric: str, q: float) -> float:
        """Fleet-wide quantile of a per-unit metric in one arm."""
        return self.stats.cell(arm, metric).sketch.quantile(q)

    def ab_estimate(self, metric: str) -> float:
        """Naive A/B estimate: treated mean minus control mean."""
        return self.mean("treated", metric) - self.mean("control", metric)

    def arm_count(self, arm: str, metric: str = "throughput_mbps") -> int:
        """Units observed in one arm."""
        key = cell_key(arm, metric)
        if key not in self.stats.cells:
            return 0
        return self.stats.cells[key].stats.count

    def engine_counters(self) -> dict[str, int]:
        """Folded engine counters of the fleet, as a flat mapping.

        Counters are folded per *edge* (a deduped shard counts once per
        edge it stands for), so they report the fleet's as-if simulation
        cost, not the cache-reduced cost actually paid — ``unique_sims``
        carries that.
        """
        return {
            "events_processed": self.stats.events_processed,
            "pool_reused": self.stats.pool_reused,
            "sketch_merges": self.stats.sketch_merges,
            "packets": self.stats.packets,
            "shards": self.stats.shards,
            "unique_sims": self.unique_sims,
        }


def _shard_seed(spec: FleetSpec, edge: int, consumes_seed: bool) -> int | None:
    """Derived per-shard seed; ``None`` when the shard draws no randomness.

    Seed-inert shards (no upstream loss, no churn) share content keys
    across edges with identical parameters — the dedupe that makes
    homogeneous fleets cheap.  The string-seeding idiom matches the rest
    of the codebase: cross-platform stable, independent streams per edge.
    """
    if not consumes_seed:
        return None
    return random.Random(f"fleet-shard:{spec.seed}:{edge}").getrandbits(32)


def shard_specs(spec: FleetSpec) -> tuple[list[ScenarioSpec], FleetCoupling]:
    """Build one ``fleet.shard_arm`` scenario spec per edge.

    Runs the treatment assignment and the fluid coupling passes, then
    freezes every edge's parameters into a content-keyable spec.
    """
    masks = fleet_assignment(spec)
    edge_weights = np.array(
        [
            sum(
                spec.treatment_connections if treated else spec.control_connections
                for treated in mask
            )
            for mask in masks
        ],
        dtype=float,
    )
    coupling = couple_fleet(spec, edge_weights)

    specs = []
    for edge in range(spec.edges):
        loss_rate = float(coupling.backbone_loss_rate[edge])
        consumes_seed = loss_rate > 0.0 or spec.churn_per_s > 0.0
        specs.append(
            ScenarioSpec(
                task="fleet.shard_arm",
                params={
                    "treated_mask": masks[edge],
                    "treatment_connections": spec.treatment_connections,
                    "control_connections": spec.control_connections,
                    "capacity_mbps": float(coupling.effective_capacity_mbps[edge]),
                    "rtt_ms": spec.edge_rtt_ms(edge) + float(coupling.extra_rtt_ms[edge]),
                    "loss_rate": loss_rate,
                    "buffer_bdp": spec.buffer_bdp,
                    "duration_s": spec.duration_s,
                    "warmup_s": spec.warmup_s,
                    "churn_per_s": spec.churn_per_s,
                    "sketch_compression": spec.sketch_compression,
                    # Inert-knob rule: probing enters the content key only
                    # when enabled, so probe-free fleets keep their cache.
                    **(
                        {"probe_interval_s": spec.probe_interval_s}
                        if spec.probe_interval_s > 0.0
                        else {}
                    ),
                },
                seed=_shard_seed(spec, edge, consumes_seed),
                label=f"fleet:{spec.granularity}:edge{edge}",
            )
        )
    return specs, coupling


def run_fleet(spec: FleetSpec, executor: ParallelExecutor | None = None) -> FleetResult:
    """Run a whole fleet and return its merged statistics.

    Identical shards (by content key) are simulated once and their
    result reused; distinct shards fan out through ``executor``
    (default: a serial, uncached one).  The merged result is
    bit-identical for any worker count.
    """
    specs, coupling = shard_specs(spec)

    unique_specs: list[ScenarioSpec] = []
    key_to_index: dict[str, int] = {}
    edge_keys: list[str] = []
    for shard in specs:
        key = content_key(shard)
        if key not in key_to_index:
            key_to_index[key] = len(unique_specs)
            unique_specs.append(shard)
        edge_keys.append(key)

    results = (executor or ParallelExecutor()).map(unique_specs)

    merged: ShardStats | None = None
    for key in edge_keys:
        shard_stats = results[key_to_index[key]]
        merged = shard_stats if merged is None else merged.merge(shard_stats)
    assert merged is not None  # spec validation guarantees >= 1 edge

    return FleetResult(
        spec=spec,
        stats=merged,
        coupling=coupling,
        unique_sims=len(unique_specs),
    )
