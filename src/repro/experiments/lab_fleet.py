"""Fleet experiment: A/B bias vs cluster size at production scale.

The paper's small labs show *why* A/B tests lie in congested networks
(within-bottleneck interference); the fleet engine asks the follow-up
question production teams actually face: **at what assignment
granularity does the lie disappear?**  :func:`run_fleet_experiment` runs
the same connection-count treatment (the paper's Figure 2a intervention)
over a sharded packet/fluid fleet at three cluster sizes:

* **unit** — randomize individual units; treated and control units share
  every edge bottleneck.  Maximum interference, the paper's headline
  bias.
* **edge** — randomize whole edges (cluster size ``units/edges``);
  arms only interact through the fluid-modelled region aggregation
  links, where treated edges' extra connections win a larger water-fill
  share.
* **region** — randomize whole regions (cluster size ``units/regions``);
  arms only interact across the backbone, which at the default
  oversubscription is not a binding constraint.

The ground truth comes from all-treated / all-control counterfactual
fleets (computed once — the assignment is degenerate at allocation 0/1,
so the counterfactuals are granularity-independent), and the expected
picture is the paper's, now with a knob: bias shrinks monotonically as
clusters grow past the interference domain, and the true total treatment
effect of "open more connections" is approximately zero when everyone
does it.

Every shard fans out through the parallel runner, so results are
bit-identical for any worker count and honest about their cost: each
:class:`FleetOutcome` reports how many distinct simulations its fleet
actually needed after content-key dedupe.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.experiments.figures import Figure
from repro.netsim.fleet.engine import FleetResult, run_fleet
from repro.netsim.fleet.spec import GRANULARITIES, FleetSpec
from repro.obs.trace import ProgressPrinter, add_trace_arguments, walltime
from repro.runner.executor import ParallelExecutor

__all__ = [
    "DEFAULT_FLEET",
    "QUICK_FLEET",
    "FleetOutcome",
    "FleetBiasComparison",
    "run_fleet_experiment",
]

#: Full-scale fleet defaults: 20k units on 200 edge bottlenecks.
DEFAULT_FLEET = FleetSpec(units=20_000, edges=200, regions=4, duration_s=4.0, warmup_s=1.0)

#: ``--quick`` fleet: still a five-figure unit count across 100 edges
#: (the scale contract CI smoke-tests), but shorter simulations.
QUICK_FLEET = FleetSpec(units=10_000, edges=100, regions=4, duration_s=2.0, warmup_s=0.5)


@dataclass
class FleetOutcome:
    """One granularity's experiment fleet, reduced to its estimates."""

    granularity: str
    cluster_size: float
    result: FleetResult

    def ab_estimate(self, metric: str = "throughput_mbps") -> float:
        """Naive A/B estimate at this granularity (treated − control mean)."""
        return self.result.ab_estimate(metric)


@dataclass
class FleetBiasComparison:
    """The fleet experiment at several assignment granularities.

    ``outcomes[granularity]`` holds each experiment fleet;
    ``truth_tte`` is the all-treated-minus-all-control counterfactual
    difference every A/B estimate is judged against.
    """

    outcomes: dict[str, FleetOutcome]
    truth_tte: float
    spec: FleetSpec
    unique_sims: int
    #: Engine counters summed across every fleet this comparison ran
    #: (the two counterfactuals plus one fleet per granularity); the CLI
    #: surfaces them under ``--trace`` and in ``repro report``.
    counters: dict[str, int] = field(default_factory=dict)

    def granularities(self) -> tuple[str, ...]:
        """Assignment granularities in run order."""
        return tuple(self.outcomes)

    def bias(self, granularity: str, metric: str = "throughput_mbps") -> float:
        """Naive A/B estimate minus the true TTE at one granularity."""
        return self.outcomes[granularity].ab_estimate(metric) - self.truth_tte

    def summary_lines(self) -> list[str]:
        """Human-readable summary: the bias-vs-cluster-size table."""
        spec = self.spec
        lines = [
            f"fleet: {spec.units} units on {spec.edges} edge bottlenecks in "
            f"{spec.regions} regions ({spec.treatment_connections} vs "
            f"{spec.control_connections} connections, {spec.allocation:.0%} allocation)",
            f"  ground-truth TTE (all-treated vs all-control): "
            f"{self.truth_tte:+.3f} Mb/s per unit",
            "  granularity   cluster   A/B estimate      bias",
        ]
        for granularity, outcome in self.outcomes.items():
            lines.append(
                f"  {granularity:<11} {outcome.cluster_size:>7g}   "
                f"{outcome.ab_estimate():+11.3f}   {self.bias(granularity):+9.3f}"
            )
        lines.append(
            f"  {self.unique_sims} distinct shard simulations for "
            f"{len(self.outcomes) + 2} fleets of {spec.edges} edges each "
            "(content-key dedupe)"
        )
        lines.append(
            "  interference lives inside the cluster: unit-level assignment "
            "inflates the estimate, edge-level leaves only cross-edge "
            "water-fill coupling, region-level only the (uncongested) backbone"
        )
        return lines

    def cells(self) -> dict[str, float]:
        """Scalar cells: the true TTE, then estimate, bias and p50 per granularity."""
        cells: dict[str, float] = {"tte_throughput_mbps": self.truth_tte}
        for granularity, outcome in self.outcomes.items():
            cells[f"ab_throughput_mbps@0.5:{granularity}"] = outcome.ab_estimate()
            cells[f"bias_throughput@0.5:{granularity}"] = self.bias(granularity)
            cells[f"p50_treated_mbps:{granularity}"] = outcome.result.quantile(
                "treated", "throughput_mbps", 0.5
            )
        return cells


def run_fleet_experiment(
    *,
    units: int | None = None,
    edges: int | None = None,
    granularities: Sequence[str] = GRANULARITIES,
    quick: bool = False,
    executor: ParallelExecutor | None = None,
    probe_interval_s: float = 0.0,
    seed: int = 0,
) -> FleetBiasComparison:
    """Measure the A/B bias of a fleet experiment at several granularities.

    Runs one 50 %-allocation fleet per granularity plus the two
    counterfactual fleets (all treated / all control) that define the
    ground-truth TTE, and reduces everything to the bias-vs-cluster-size
    comparison.

    Parameters
    ----------
    units, edges:
        Fleet size overrides; defaults come from :data:`DEFAULT_FLEET`
        (or :data:`QUICK_FLEET` with ``quick``).
    granularities:
        Assignment granularities to compare (subset of
        :data:`~repro.netsim.fleet.GRANULARITIES`).
    quick:
        Use the smaller quick-scale fleet for smoke tests.
    executor:
        Runs every fleet's shards (default: a serial, uncached one); the
        CLI passes a traced one so shard spans and live progress flow out
        of every fleet.
    probe_interval_s:
        Sim-time cadence of in-shard queue-depth probing; 0 (default)
        disables it.  Probing never changes the estimates.
    seed:
        Master seed: derives the treatment assignment and every
        seed-consuming shard's stream.
    """
    if not granularities:
        raise ValueError("at least one granularity is required")
    unknown = [g for g in granularities if g not in GRANULARITIES]
    if unknown:
        raise ValueError(f"unknown granularities {unknown}; choose from {GRANULARITIES}")
    if len(set(granularities)) != len(granularities):
        raise ValueError("granularities must be distinct")

    base = QUICK_FLEET if quick else DEFAULT_FLEET
    overrides: dict[str, int] = {}
    if units is not None:
        overrides["units"] = units
    if edges is not None:
        overrides["edges"] = edges
    base = replace(base, seed=seed, **overrides)
    if probe_interval_s > 0.0:
        # Keep the knob off the spec when unset: it must stay inert in
        # shard content keys so probe-free fleets keep their cache.
        base = replace(base, probe_interval_s=probe_interval_s)

    counters: dict[str, int] = {}

    def fold_counters(result: FleetResult) -> None:
        for name, value in result.engine_counters().items():
            counters[name] = counters.get(name, 0) + value

    # The counterfactual fleets: at allocation 0/1 the assignment is
    # degenerate (every cluster lands in the same arm no matter how
    # clusters are drawn), so the truth is granularity-independent and
    # computed once.
    treated_fleet = run_fleet(replace(base, allocation=1.0), executor=executor)
    control_fleet = run_fleet(replace(base, allocation=0.0), executor=executor)
    truth_tte = treated_fleet.mean("treated", "throughput_mbps") - control_fleet.mean(
        "control", "throughput_mbps"
    )
    fold_counters(treated_fleet)
    fold_counters(control_fleet)

    outcomes: dict[str, FleetOutcome] = {}
    unique = treated_fleet.unique_sims + control_fleet.unique_sims
    for granularity in granularities:
        spec = replace(base, granularity=granularity)
        result = run_fleet(spec, executor=executor)
        outcomes[granularity] = FleetOutcome(
            granularity=granularity,
            cluster_size=spec.cluster_size(),
            result=result,
        )
        unique += result.unique_sims
        fold_counters(result)

    return FleetBiasComparison(
        outcomes=outcomes,
        truth_tte=truth_tte,
        spec=base,
        unique_sims=unique,
        counters=counters,
    )


def _add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    add_trace_arguments(parser)
    parser.add_argument(
        "--units",
        type=int,
        default=None,
        help="fleet size (default: 20000, or 10000 with --quick)",
    )
    parser.add_argument(
        "--edges",
        type=int,
        default=None,
        help="edge bottlenecks (default: 200, or 100 with --quick)",
    )
    parser.add_argument(
        "--granularity",
        choices=["unit", "edge", "region", "all"],
        default="all",
        help="assignment granularity to compare (default: all three)",
    )
    parser.add_argument(
        "--probe",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "sample in-sim queue depth on every fleet shard at this simulated-"
            "time cadence (never changes results)"
        ),
    )


def _render_fleet(
    args: argparse.Namespace, parser: argparse.ArgumentParser, executor: ParallelExecutor
) -> list[str]:
    base = QUICK_FLEET if args.quick else DEFAULT_FLEET
    units = base.units if args.units is None else args.units
    edges = base.edges if args.edges is None else args.edges
    if units < 1:
        parser.error("--units must be positive")
    if not base.regions <= edges <= units:
        parser.error(
            f"--edges must be in [{base.regions}, {units}]: at least one edge per "
            f"region and at least one unit per edge (got {edges})"
        )
    tracer = executor.tracer
    # A live shard progress line on a terminal, or whenever a trace is on.
    if tracer is not None or sys.stderr.isatty():
        executor.on_task_done = ProgressPrinter("shards")
    started = walltime()
    comparison = run_fleet_experiment(
        units=args.units,
        edges=args.edges,
        granularities=GRANULARITIES if args.granularity == "all" else (args.granularity,),
        quick=args.quick,
        executor=executor,
        probe_interval_s=args.probe or 0.0,
        seed=args.seed,
    )
    if tracer is not None:
        wall = walltime() - started
        fleets = len(comparison.outcomes) + 2
        tracer.add_counters(comparison.counters)
        tracer.finish(
            {
                "figure": "fleet",
                "shards": comparison.spec.edges * fleets,
                "units": comparison.spec.units,
                "units_per_s": comparison.spec.units * fleets / wall if wall > 0 else 0.0,
            }
        )
    return comparison.summary_lines()


FIGURES = (
    Figure(
        name="fleet",
        help="sharded fleet: bias vs assignment cluster size",
        group="fleet",
        knob="quick",
        # The treatment assignment and every squeezed shard's loss stream
        # derive from the seed.
        seeded=True,
        cells=lambda quick, seed: run_fleet_experiment(
            quick=quick, seed=0 if seed is None else seed
        ).cells(),
        render=_render_fleet,
        add_arguments=_add_fleet_arguments,
    ),
)
