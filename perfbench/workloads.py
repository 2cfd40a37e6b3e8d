"""The benchmark's three workloads.

Each workload turns a seed into inputs (:meth:`build`, the part timed as
set-up), runs one closed-loop batch job over them (:meth:`run_pass`) and
checks the outputs.  A pass returns a :class:`PassOutcome`: operations
attempted and failed, the work done (segments, fleet units or campaign
arms), the wall time of each phase of the job and a sha256 digest of the
simulated statistics.

* ``packet_lab`` — the paper's lab on the unbatched packet engine, run
  serially in-process without a cache: four allocation sweeps of one
  few-flow bottleneck (BBR vs Cubic on drop-tail, 2-vs-1 Reno connections
  on CoDel with classic ECN, on FQ-CoDel and on DualPI2 with L4S senders).
* ``fleet_quick`` — a fifth of the ``repro fleet --quick`` geometry (2k
  units on 20 edges in 4 regions, 100 units per edge as in ``--quick``;
  two counterfactual fleets plus the unit, edge and region
  granularities) on the batched engine at ``jobs=2``.
* ``campaign_cache`` — ``campaign_cache.yaml``: a cold pass into a fresh
  cache with a run directory, ``validate_run`` on it, then a warm pass in
  which every arm is a cache hit.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.runner import ParallelExecutor, ResultCache
from repro.runner import spec as runner_spec

from perfbench.calibrate import PhaseClock
from perfbench.tracing import NetworkObserver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.packet.sweep import PacketSweepResult

# Each workload imports its own layers when it builds or runs, so that a
# workload's set-up time holds only the imports it needs.

__all__ = ["PassOutcome", "WORKLOADS", "digest"]

HERE = Path(__file__).resolve().parent

#: Scratch space for cache and run directories (removed after each pass).
WORK_DIR = HERE / ".work"


@dataclass
class PassOutcome:
    """What one pass of a workload did and whether its outputs hold."""

    ops: int
    work: float
    #: The job's timed phases (see :class:`perfbench.calibrate.PhaseClock`).
    clock: PhaseClock
    digest: str
    #: Indices (within the pass) of operations that failed a check.
    failed_ops: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    #: MSS segments sent (macro-packets counted by their segments).
    segments: int = 0
    #: Workload-specific counts for the per-layer table.
    details: dict[str, float] = field(default_factory=dict)
    #: Counters of the packet simulations run in this process, if any.
    network: NetworkObserver | None = None

    def fail(self, ops: range | list[int], problem: str) -> None:
        self.failed_ops.update(ops)
        self.problems.append(problem)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def wall_s(self) -> float:
        return sum(self.clock.walls.values())


def digest(payload: Any) -> str:
    """sha256 of a JSON payload (floats written with all their digits)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _SpecCollector:
    """Stands in for an executor: records the specs instead of running them."""

    def __init__(self) -> None:
        self.specs: list[Any] = []

    def map(self, specs: Any) -> list[None]:
        specs = list(specs)
        self.specs.extend(specs)
        return [None] * len(specs)


# -- packet_lab -----------------------------------------------------------------


@dataclass(frozen=True)
class LabSweep:
    """One allocation sweep of the packet lab, compiled to runner specs."""

    name: str
    n_units: int
    allocations: tuple[int, ...]
    specs: tuple[Any, ...]


class PacketLab:
    """Four allocation sweeps of a few-flow bottleneck, serial and uncached."""

    name = "packet_lab"
    work_name = "segments_per_s"
    runner_jobs = 1
    #: The in-process call pass runs the whole workload.
    full_call_pass = True

    #: (sweep, queue discipline, treated unit, control unit).
    SWEEPS: tuple[tuple[str, str, dict[str, Any], dict[str, Any]], ...] = (
        ("droptail", "droptail", {"cc": "bbr"}, {"cc": "cubic"}),
        (
            "codel",
            "codel",
            {"cc": "reno", "connections": 2, "ecn": "classic"},
            {"cc": "reno", "ecn": "classic"},
        ),
        ("fq_codel", "fq_codel", {"cc": "reno", "connections": 2}, {"cc": "reno"}),
        (
            "dualpi2",
            "dualpi2",
            {"cc": "reno", "connections": 2, "ecn": "l4s", "paced": True},
            {"cc": "reno", "ecn": "l4s", "paced": True},
        ),
    )
    N_UNITS = 4
    ALLOCATIONS = (0, 2, 4)
    CAPACITY_MBPS = 24.0
    #: Drop-tail arms must keep the bottleneck at least this busy.
    MIN_DROPTAIL_UTILIZATION = 0.95
    #: |A/B estimate| under FQ-CoDel, as a share of the control fair share.
    FQ_AB_TOLERANCE = 0.1

    def build(self, seed: int) -> list[LabSweep]:
        """Compile the four sweeps; the seed draws the units' two RTTs.

        Units alternate between the two RTTs, so at the 50 % allocation
        both arms hold the same RTT mix and the A/B checks stay valid.
        """
        from repro.netsim.packet.simulation import FlowConfig
        from repro.netsim.packet.sweep import run_packet_sweep

        rng = random.Random(f"perfbench:packet_lab:{seed}")
        rtt_ms = tuple(round(rng.uniform(20.0, 30.0), 3) for _ in range(2))
        sweeps = []
        for name, discipline, treated, control in self.SWEEPS:
            collector = _SpecCollector()
            run_packet_sweep(
                self.N_UNITS,
                treatment_factory=partial(FlowConfig, **treated),
                control_factory=partial(FlowConfig, **control),
                allocations=self.ALLOCATIONS,
                capacity_mbps=self.CAPACITY_MBPS,
                duration_s=6.0,
                warmup_s=2.0,
                queue_discipline=discipline,
                rtt_ms=rtt_ms,
                seed=seed,
                executor=collector,
            )
            sweeps.append(LabSweep(name, self.N_UNITS, self.ALLOCATIONS, tuple(collector.specs)))
        return sweeps

    def run_pass(
        self, sweeps: list[LabSweep], jobs: int = 1, on_task_done: Any = None
    ) -> PassOutcome:
        from repro.netsim.packet.sweep import PacketSweepResult

        executor = ParallelExecutor(jobs=jobs, on_task_done=on_task_done)
        observer = NetworkObserver()
        results: list[PacketSweepResult] = []
        clock = PhaseClock(workers=jobs)
        with observer:
            for sweep in sweeps:
                with clock.phase(sweep.name):
                    arms = executor.map(sweep.specs)
                results.append(PacketSweepResult(sweep.n_units, dict(zip(sweep.allocations, arms))))

        arm_results = [r for sweep in results for r in sweep.results.values()]
        segments = sum(f.packets_sent for r in arm_results for f in r.flows)
        outcome = PassOutcome(
            ops=len(arm_results),
            work=segments,
            clock=clock,
            segments=segments,
            digest=digest(
                [
                    [sweep.name, k, _packet_result_payload(r)]
                    for sweep, result in zip(sweeps, results)
                    for k, r in sorted(result.results.items())
                ]
            ),
            network=observer if jobs == 1 else None,
        )
        self._check(sweeps, results, observer, jobs, outcome)
        return outcome

    def _check(
        self,
        sweeps: list[LabSweep],
        results: list[PacketSweepResult],
        observer: NetworkObserver,
        jobs: int,
        outcome: PassOutcome,
    ) -> None:
        first = 0
        for sweep, result in zip(sweeps, results):
            ops = range(first, first + len(sweep.allocations))
            first += len(sweep.allocations)
            if sweep.name == "droptail":
                for op, r in zip(ops, result.results.values()):
                    utilization = r.total_throughput_mbps() / r.capacity_mbps
                    if utilization < self.MIN_DROPTAIL_UTILIZATION:
                        outcome.fail([op], f"droptail arm {op}: utilization {utilization:.3f}")
            ab = result.ab_estimate("throughput_mbps", 0.5)
            if sweep.name == "fq_codel":
                fair = result.results[0].group_mean_throughput(False)
                if abs(ab) >= self.FQ_AB_TOLERANCE * fair:
                    outcome.fail(ops, f"fq_codel A/B estimate {ab:+.3f} is not near zero")
            elif not ab > 0.0:
                outcome.fail(ops, f"{sweep.name} A/B estimate {ab:+.3f} is not positive")
        # Queues are only visible when the arms ran in this process.
        if jobs == 1:
            if observer.runs != outcome.ops:
                outcome.fail(range(outcome.ops), f"observed {observer.runs} simulations")
            for run, queue in observer.violations:
                outcome.fail([run], f"arm {run}: queue {queue!r} does not conserve packets")

    def call_pass(self, sweeps: list[LabSweep]) -> PassOutcome:
        return self.run_pass(sweeps, jobs=1)

    def warm_up(self, sweeps: list[LabSweep]) -> None:
        self.run_pass(sweeps)


def _packet_result_payload(result: Any) -> dict[str, Any]:
    """The simulated statistics of one packet arm (no engine internals)."""
    return {
        "flows": [
            [
                f.flow_id,
                f.treated,
                f.throughput_mbps,
                f.retransmit_fraction,
                f.packets_sent,
                f.packets_lost,
                f.packets_marked,
            ]
            for f in result.flows
        ],
        "drops": result.total_drops,
        "max_queue_bytes": result.max_queue_occupancy_bytes,
        "queue_drops": result.queue_drops,
        "queue_marks": result.queue_marks,
    }


# -- fleet_quick ------------------------------------------------------------------


@dataclass(frozen=True)
class FleetInputs:
    #: The fleets ``run_fleet_experiment`` runs: two counterfactuals, then
    #: one per assignment granularity.
    fleets: dict[str, Any]
    #: Per fleet, its distinct shard specs (``run_fleet`` runs each key once).
    shards: dict[str, list[Any]]


class FleetQuick:
    """``repro fleet --quick`` on the batched engine across two workers."""

    name = "fleet_quick"
    work_name = "units_per_s"
    runner_jobs = 2
    full_call_pass = False
    #: A fifth of the ``--quick`` fleet, with its 100 units per edge and 4
    #: regions: a pass takes seconds, so a run repeats every fleet.
    UNITS, EDGES = 2_000, 20
    #: Every ``CALL_STRIDE``-th shard of the unit fleet makes the call pass.
    CALL_STRIDE = 2
    QUANTILES = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)

    def __init__(self, units: int = UNITS, edges: int = EDGES) -> None:
        from repro.experiments.lab_fleet import QUICK_FLEET

        self.base = replace(QUICK_FLEET, units=units, edges=edges)

    def build(self, seed: int) -> FleetInputs:
        """The fleets ``run_fleet_experiment`` runs, down to their shard specs."""
        from repro.netsim import fleet

        base = replace(self.base, seed=seed)
        fleets = {
            "treated": replace(base, allocation=1.0),
            "control": replace(base, allocation=0.0),
            **{g: replace(base, granularity=g) for g in fleet.GRANULARITIES},
        }
        shards = {}
        for name, spec in fleets.items():
            specs, _ = fleet.shard_specs(spec)
            shards[name] = list({runner_spec.content_key(s): s for s in specs}.values())
        return FleetInputs(fleets, shards)

    def run_pass(self, inputs: FleetInputs, jobs: int = 2, on_task_done: Any = None) -> PassOutcome:
        """The fleet experiment, one timed phase per fleet.

        Runs each fleet through ``run_fleet`` and reduces them the way
        ``run_fleet_experiment`` does: the counterfactual fleets give the
        true effect, each granularity's naive estimate its bias.
        """
        from repro.netsim import fleet

        executor = ParallelExecutor(jobs=jobs, on_task_done=on_task_done)
        clock = PhaseClock(workers=jobs)
        results = {}
        for name, spec in inputs.fleets.items():
            with clock.phase(name):
                results[name] = fleet.run_fleet(spec, executor=executor)

        metric = "throughput_mbps"
        truth = results["treated"].mean("treated", metric) - results["control"].mean(
            "control", metric
        )
        edges, units = self.base.edges, self.base.units
        shards = edges * len(results)
        stats = [r.stats for r in results.values()]
        outcome = PassOutcome(
            ops=shards,
            work=units * len(results),
            clock=clock,
            segments=sum(s.packets for s in stats),
            digest=digest(
                {
                    "truth_tte": truth,
                    "fleets": {
                        g: self._stats_payload(results[g].stats) for g in fleet.GRANULARITIES
                    },
                }
            ),
            details={
                "unique_shard_frac": sum(r.unique_sims for r in results.values()) / shards,
                "drops": sum(s.drops for s in stats),
                "packets": sum(s.packets for s in stats),
            },
        )
        for index, (name, result) in enumerate(results.items()):
            counted = result.arm_count("treated") + result.arm_count("control")
            if counted != units or result.stats.shards != edges:
                ops = range(index * edges, (index + 1) * edges)
                outcome.fail(ops, f"{name} fleet covers {counted} of {units} units")
        unit_bias, region_bias = (
            results[g].ab_estimate(metric) - truth for g in ("unit", "region")
        )
        if not unit_bias > region_bias:
            outcome.fail(
                range(shards),
                f"unit-level bias {unit_bias:+.4f} does not exceed region-level {region_bias:+.4f}",
            )
        return outcome

    def warm_up(self, inputs: FleetInputs) -> None:
        """One shard in this process, so forked workers start warm."""
        ParallelExecutor(jobs=1).map(inputs.shards["unit"][:1])

    def call_pass(self, inputs: FleetInputs) -> PassOutcome:
        """A strided subset of the unit fleet's shards, in-process."""
        specs = inputs.shards["unit"][:: self.CALL_STRIDE]
        observer = NetworkObserver()
        clock = PhaseClock()
        with clock.phase("unit_subset"), observer:
            results = ParallelExecutor(jobs=1).map(specs)
            merged = results[0]
            for stats in results[1:]:
                merged = merged.merge(stats)
        outcome = PassOutcome(
            ops=len(specs),
            work=merged.units,
            clock=clock,
            segments=merged.packets,
            digest=digest(self._stats_payload(merged)),
            network=observer,
        )
        for run, queue in observer.violations:
            outcome.fail([run], f"shard {run}: queue {queue!r} does not conserve packets")
        return outcome

    def _stats_payload(self, stats: Any) -> dict[str, Any]:
        """Simulated statistics of merged shards: moments, quantiles, counts."""
        return {
            "cells": {
                key: [cell.stats.to_dict(), cell.sketch.quantiles(self.QUANTILES)]
                for key, cell in sorted(stats.cells.items())
            },
            "units": stats.units,
            "shards": stats.shards,
            "packets": stats.packets,
            "drops": stats.drops,
        }


# -- campaign_cache ---------------------------------------------------------------


class CampaignCache:
    """A campaign file run cold into a fresh cache, validated, then warm."""

    name = "campaign_cache"
    work_name = "arms_per_s"
    runner_jobs = 2
    full_call_pass = True
    CAMPAIGN_FILE = HERE / "campaign_cache.yaml"
    #: Seed grids move by this much per workload seed, so grids never overlap.
    SEED_STRIDE = 1000

    def build(self, seed: int) -> Any:
        """Load the campaign, move its seed grids by the seed, compile it."""
        from repro import campaign

        loaded = campaign.load_campaign(self.CAMPAIGN_FILE)
        offset = seed * self.SEED_STRIDE
        spec = replace(
            loaded,
            stages=tuple(
                replace(stage, seeds=tuple(s + offset for s in stage.seeds))
                for stage in loaded.stages
            ),
        )
        spec.arms()
        return spec

    def run_pass(self, spec: Any, jobs: int = 2, on_task_done: Any = None) -> PassOutcome:
        from repro import campaign

        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as work:
            rundir = Path(work) / "run"
            clock = PhaseClock(workers=jobs)
            with clock.phase("cold"):
                cold = campaign.run_campaign(
                    spec,
                    jobs=jobs,
                    cache=ResultCache(Path(work) / "cache"),
                    on_task_done=on_task_done,
                    rundir=rundir,
                )
            # validate_run and a warm pass of cache hits run in this process.
            with clock.phase("validate_warm", workers=1):
                report = campaign.validate_run(rundir, spec)
                warm = campaign.run_campaign(
                    spec,
                    jobs=jobs,
                    cache=ResultCache(Path(work) / "cache"),
                    on_task_done=on_task_done,
                )

        cold_arms, warm_arms = len(cold.arms), len(warm.arms)
        lookups = warm.cache_hits + warm.cache_misses
        outcome = PassOutcome(
            ops=cold_arms + warm_arms,
            work=cold_arms + warm_arms,
            clock=clock,
            digest=self._digest(cold),
            details={"cache_hit_frac": warm.cache_hits / lookups if lookups else 0.0},
        )
        cold_ops, warm_ops = range(cold_arms), range(cold_arms, cold_arms + warm_arms)
        if cold.cache_misses != cold.unique_arms:
            outcome.fail(cold_ops, f"cold pass missed {cold.cache_misses} of {cold.unique_arms}")
        if not report.ok:
            outcome.fail(cold_ops, "validate_run: " + "; ".join(report.problems[:3]))
        if warm.cache_misses or warm.cache_hits != warm.unique_arms:
            outcome.fail(warm_ops, f"warm pass hit {warm.cache_hits} of {warm.unique_arms}")
        if self._digest(warm) != outcome.digest:
            outcome.fail(warm_ops, "warm pass cells differ from the cold pass")
        return outcome

    def call_pass(self, spec: Any) -> PassOutcome:
        return self.run_pass(spec, jobs=1)

    def warm_up(self, spec: Any) -> None:
        self.run_pass(spec, jobs=self.runner_jobs)

    @staticmethod
    def _digest(result: Any) -> str:
        return digest([[a.stage, a.seed, dict(sorted(a.cells.items()))] for a in result.arms])


WORKLOADS: dict[str, Any] = {
    PacketLab.name: PacketLab,
    FleetQuick.name: FleetQuick,
    CampaignCache.name: CampaignCache,
}
