"""Churn experiments: A/B bias under dynamic traffic and time-varying demand.

Two experiments put the dynamic-traffic subsystem to work on the paper's
questions:

* :func:`run_churn_experiment` — the connection-count A/B sweep (the
  paper's Figure 2a treatment) re-run while a Poisson stream of finite,
  heavy-tailed flows churns through the same bottleneck.  The zero-churn
  arm is *exactly* today's static experiment (same sweep, same specs, so
  it shares cache entries with ``topo_aqm``'s drop-tail sweep); the
  churny arms answer: does short-flow churn — traffic that grabs
  bandwidth during slow start and leaves — dilute or amplify the bias
  the paper measured against long-lived competitors only?  Flow
  completion times of the churning flows come back per intensity, an
  observable the static lab could not produce at all.

* :func:`run_switchback_ramp_experiment` — a time-based design under
  demand that actually moves.  Background churn ramps up across the
  experiment (each interval also ramps internally via
  :class:`~repro.netsim.traffic.demand.RampDemand`), the intervals are
  randomly assigned by the paper's
  :class:`~repro.core.designs.switchback.SwitchbackDesign`, and the
  switchback TTE estimate is compared against (a) the ground truth from
  all-treated/all-control counterfactual runs of every interval and (b)
  a before/after event study launched at the midpoint.  Under rising
  demand the event study conflates launch with load; the switchback's
  randomized intervals do not — Section 5's argument, reproduced on the
  packet simulator.

Both run every simulation arm through the one
:class:`~repro.runner.executor.ParallelExecutor` they are passed, so
results are deterministic for a fixed seed and bit-identical for any
worker count.
"""

from __future__ import annotations

import argparse
import math
import random
from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.designs.switchback import SwitchbackDesign
from repro.experiments.figures import Figure
from repro.experiments.lab_common import (
    BiasComparison,
    LabFigure,
    sweep_connection_treatment,
    sweep_to_figure,
)
from repro.netsim.traffic.arrivals import PoissonArrivals
from repro.netsim.traffic.demand import RampDemand
from repro.netsim.traffic.sizes import ParetoSizes
from repro.netsim.traffic.source import TrafficSource
from repro.runner.executor import ParallelExecutor

__all__ = [
    "DEFAULT_CHURN_RATES",
    "RAMP_BASE_CHURN_PER_S",
    "RAMP_FACTOR",
    "ChurnStats",
    "ChurnBiasComparison",
    "run_churn_experiment",
    "SwitchbackRampOutcome",
    "run_switchback_ramp_experiment",
]

#: Churn intensities (flow arrivals per second) swept by default; 0.0 is
#: the static reference that must reproduce today's result exactly.
DEFAULT_CHURN_RATES: tuple[float, ...] = (0.0, 2.0, 6.0)

#: Heavy-tailed size distribution of churning flows: Pareto(1.5) with a
#: 60 kB floor gives a 180 kB mean — mice with the occasional elephant.
CHURN_SIZES = ParetoSizes(min_bytes=60_000.0, alpha=1.5)

#: Churn sizes for the switchback-ramp scenario: still Pareto, but with
#: a finite-variance tail (alpha 2.5, ~100 kB mean).  The ramp's point
#: is the demand *trend*; with infinite-variance sizes a single elephant
#: flow can dominate one short interval's mean and drown the trend in
#: sampling noise at lab scale.
RAMP_SIZES = ParetoSizes(min_bytes=60_000.0, alpha=2.5)

#: Churn arrival rate (flows/s) at the start of the switchback ramp.
RAMP_BASE_CHURN_PER_S = 4.0

#: Demand multiplier the switchback ramp reaches by its final interval.
RAMP_FACTOR = 4.0

#: Units in every switchback-ramp interval, before a production split
#: scales them up.
RAMP_UNITS = 4


def _churn_sources(rate_per_s: float) -> tuple[TrafficSource, ...] | None:
    if rate_per_s <= 0.0:
        # No sources at all (not an idle source): the sweep then builds
        # byte-identical specs to the static experiment, sharing its
        # cache entries.
        return None
    return (
        TrafficSource(
            arrivals=PoissonArrivals(rate_per_s),
            sizes=CHURN_SIZES,
            label="churn",
        ),
    )


@dataclass
class ChurnStats:
    """Lifecycle summary of the churning flows at one intensity (taken
    from the 50 %-allocation arm of the sweep).

    Beyond the mean, the FCT distribution's p50/p95/p99 are reported:
    with heavy-tailed sizes the mean is dominated by a few elephants
    while the percentiles expose what churn does to the typical and the
    tail latency — the ROADMAP's "FCT percentiles as figure cells"
    follow-up.  All are ``None`` when nothing completed (zero churn).
    """

    flows_started: int
    flows_completed: int
    mean_fct_s: float | None
    p50_fct_s: float | None = None
    p95_fct_s: float | None = None
    p99_fct_s: float | None = None


@dataclass
class ChurnBiasComparison(BiasComparison):
    """The connection-count sweep at several churn intensities.

    ``figures[rate]`` is the :class:`LabFigure` with churn arriving at
    ``rate`` flows/s; :meth:`bias` reduces each to how far the naive A/B
    estimate sits from the true total treatment effect.  ``churn[rate]``
    summarizes the dynamic flows themselves (counts and mean FCT).
    """

    churn: dict[float, ChurnStats]

    def rates(self) -> tuple[float, ...]:
        """Churn intensities in sweep order."""
        return tuple(self.figures)

    def heading(self, rate: float) -> str:
        """The line above one intensity's figure summary."""
        return f"=== churn intensity: {rate:g} flows/s ==="

    def label(self, rate: float) -> str:
        """One intensity's label in the bias table."""
        return f"churn {rate:>5g}/s"

    def notes(self) -> list[str]:
        """Counts and FCTs of the churning flows at each intensity."""
        lines = ["churning flows at the 50% allocation arm:"]
        for rate, stats in self.churn.items():
            fct = "-" if stats.mean_fct_s is None else f"{stats.mean_fct_s:.3f}s"
            tail = "-"
            if stats.p50_fct_s is not None:
                tail = (
                    f"p50 {stats.p50_fct_s:.3f}s / p95 {stats.p95_fct_s:.3f}s "
                    f"/ p99 {stats.p99_fct_s:.3f}s"
                )
            lines.append(
                f"  churn {rate:>5g}/s: {stats.flows_started} started, "
                f"{stats.flows_completed} completed, mean FCT {fct}, {tail}"
            )
        return lines

    def cells(self) -> dict[str, float]:
        """Scalar cells per intensity: bias, completed flows and FCTs."""
        cells: dict[str, float] = {}
        for rate in self.rates():
            cells[f"bias_throughput@0.5:churn{rate:g}"] = self.bias(rate)
            stats = self.churn[rate]
            cells[f"churn_flows_completed:churn{rate:g}"] = float(stats.flows_completed)
            # Always emit the FCT cells so replications agree on the cell set
            # (0.0 stands for "no completions", which only zero churn hits).
            for name, value in (
                ("mean_fct_s", stats.mean_fct_s),
                ("fct_p50_s", stats.p50_fct_s),
                ("fct_p95_s", stats.p95_fct_s),
                ("fct_p99_s", stats.p99_fct_s),
            ):
                cells[f"{name}:churn{rate:g}"] = 0.0 if value is None else value
        return cells


def run_churn_experiment(
    *,
    churn_rates: Sequence[float] = DEFAULT_CHURN_RATES,
    quick: bool = False,
    executor: ParallelExecutor | None = None,
    seed: int = 0,
) -> ChurnBiasComparison:
    """The parallel-connections bias as a function of churn intensity.

    Each intensity re-runs the full allocation sweep with a Poisson
    stream of finite Pareto-sized flows sharing the bottleneck.  The
    churning flows are unmeasured (like real background traffic); the
    sweep measures the same long-lived applications as the static
    experiment, so the bias trajectory across intensities isolates what
    *churn itself* does to an A/B test.

    Parameters
    ----------
    churn_rates:
        Flow arrival rates (per second) to sweep; include 0.0 to anchor
        the comparison at today's static result (the zero-churn specs
        are identical to the static sweep's, cache entries included).
    quick:
        Shrink the sweep (fewer units, shorter runs) for smoke tests.
    executor:
        Runs the arms of every intensity (default: a serial, uncached one).
    seed:
        Seed for the churn arrivals and flow sizes (inert at rate 0.0).
    """
    if not churn_rates:
        raise ValueError("at least one churn rate is required")
    if any(rate < 0 for rate in churn_rates):
        raise ValueError("churn rates must be non-negative")
    if len(set(churn_rates)) != len(churn_rates):
        raise ValueError("churn rates must be distinct")

    figures: dict[float, LabFigure] = {}
    churn_stats: dict[float, ChurnStats] = {}
    for rate in churn_rates:
        rate = float(rate)
        sweep, units = sweep_connection_treatment(
            quick, traffic_sources=_churn_sources(rate), seed=seed, executor=executor
        )
        figures[rate] = sweep_to_figure(
            sweep,
            name=f"topo_churn[{rate:g}/s]",
            description=(
                f"{units} on a shared drop-tail bottleneck with Pareto-sized "
                f"flows churning at {rate:g}/s"
            ),
        )
        midpoint = sweep.results[sweep.n_units // 2]
        started, completed = midpoint.dynamic_flow_counts()
        churn_stats[rate] = ChurnStats(
            flows_started=started,
            flows_completed=completed,
            mean_fct_s=midpoint.mean_dynamic_fct_s(),
            p50_fct_s=midpoint.dynamic_fct_percentile(50.0),
            p95_fct_s=midpoint.dynamic_fct_percentile(95.0),
            p99_fct_s=midpoint.dynamic_fct_percentile(99.0),
        )
    return ChurnBiasComparison(figures=figures, churn=churn_stats)


# -- switchback under a demand ramp --------------------------------------------


@dataclass
class SwitchbackRampOutcome:
    """A switchback vs an event study under ramping background demand.

    Attributes
    ----------
    n_intervals:
        Number of switchback intervals.
    treatment_intervals:
        Intervals randomly assigned to treatment (high allocation).
    demand_multipliers:
        Background-churn demand multiplier at each interval *boundary*
        (``n_intervals + 1`` values): interval ``i`` ramps from
        ``demand_multipliers[i]`` to ``demand_multipliers[i + 1]``.
    truth_tte:
        Ground-truth per-unit TTE: all-treated minus all-control
        counterfactual runs, averaged over every interval.
    switchback_estimate:
        Treated mean over treatment intervals minus control mean over
        control intervals (the design's comparison).
    event_study_estimate:
        Before/after estimate of a launch at the midpoint interval:
        all-treated mean of later intervals minus all-control mean of
        earlier ones — confounded by whatever demand did meanwhile.
    traffic_split:
        Allocation inside treatment intervals (control intervals run the
        mirror ``1 - traffic_split``).  1.0 is the pure switchback; 0.95
        is the paper's production split, where each interval mixes both
        arms and within-interval interference re-enters.
    within_interval_ab_estimate:
        Mean over all intervals of the *within-interval* treated-minus-
        control difference at the realized allocation — the naive
        estimator a production 95/5 deployment invites.  ``None`` for
        the pure switchback (pure intervals have no opposite arm).
    allocation_units:
        The realized ``(control-interval, treatment-interval)`` treated
        unit counts of a mixed split (always a strict minority/majority
        pair); ``None`` for the pure switchback.
    """

    n_intervals: int
    treatment_intervals: tuple[int, ...]
    demand_multipliers: tuple[float, ...]
    truth_tte: float
    switchback_estimate: float
    event_study_estimate: float
    traffic_split: float = 1.0
    within_interval_ab_estimate: float | None = None
    allocation_units: tuple[int, int] | None = None

    def switchback_error(self) -> float:
        """Absolute error of the switchback estimate vs the truth."""
        return abs(self.switchback_estimate - self.truth_tte)

    def event_study_error(self) -> float:
        """Absolute error of the event-study estimate vs the truth."""
        return abs(self.event_study_estimate - self.truth_tte)

    def within_interval_error(self) -> float | None:
        """Absolute error of the within-interval A/B estimate vs the truth."""
        if self.within_interval_ab_estimate is None:
            return None
        return abs(self.within_interval_ab_estimate - self.truth_tte)

    def summary_lines(self) -> list[str]:
        """The three estimates against the ground truth, one line each."""
        split = (
            "pure 100/0 intervals"
            if self.traffic_split >= 1.0
            else f"{self.traffic_split:.0%}/{1.0 - self.traffic_split:.0%} intervals"
        )
        lines = [
            "switchback vs event study under a background-demand ramp "
            f"({self.n_intervals} intervals, {split}, churn demand x"
            f"{self.demand_multipliers[0]:g} -> x{self.demand_multipliers[-1]:g})",
            f"  treatment intervals (randomized): {list(self.treatment_intervals)}",
            f"  ground-truth TTE:      {self.truth_tte:+.2f} Mb/s per unit",
            f"  switchback estimate:   {self.switchback_estimate:+.2f} Mb/s "
            f"(error {self.switchback_error():.2f})",
            f"  event-study estimate:  {self.event_study_estimate:+.2f} Mb/s "
            f"(error {self.event_study_error():.2f})",
        ]
        if self.within_interval_ab_estimate is not None:
            lines.append(
                f"  within-interval A/B:   {self.within_interval_ab_estimate:+.2f} "
                f"Mb/s (error {self.within_interval_error():.2f}) — the "
                "production-split estimator, biased by within-interval "
                "interference"
            )
        lines.append(
            "  the event study conflates the launch with the demand ramp; "
            "the randomized switchback does not"
        )
        return lines


def _ramp_scale(quick: bool) -> tuple[int, dict[str, float]]:
    """Interval count and per-interval sweep sizing of the switchback ramp."""
    if quick:
        return 4, dict(capacity_mbps=24.0, duration_s=5.0, warmup_s=1.5)
    return 6, dict(capacity_mbps=24.0, duration_s=8.0, warmup_s=2.0)


def run_switchback_ramp_experiment(
    *,
    traffic_split: float = 1.0,
    quick: bool = False,
    executor: ParallelExecutor | None = None,
    seed: int = 0,
) -> SwitchbackRampOutcome:
    """Estimate a TTE by switchback while background churn ramps up.

    Each interval is one packet simulation of a switchback allocation —
    by default *pure* (treatment intervals treat every unit, control
    intervals none — 100/0, so the estimate isolates time confounding
    with no within-interval interference); a ``traffic_split`` below 1
    instead runs the paper's production-style mixed intervals
    (``traffic_split`` treated during treatment intervals, the mirror
    ``1 - traffic_split`` during control intervals), which re-admits
    within-interval interference and additionally reports the naive
    within-interval A/B estimate such a deployment invites.  Unmeasured
    churn arrives at a rate that ramps from :data:`RAMP_BASE_CHURN_PER_S`
    to :data:`RAMP_FACTOR` times that across the experiment (and linearly
    *within* each interval, via
    :class:`~repro.netsim.traffic.demand.RampDemand`, so interval
    boundaries genuinely straddle demand shifts).  Counterfactual
    all-treated / all-control runs of every interval provide the ground
    truth and the midpoint-launch event-study emulation.  Interval
    randomization is balanced per consecutive pair (a handful of
    intervals under a monotone ramp cannot afford a 3-1 draw) and the
    chosen days flow through :class:`SwitchbackDesign` as the paper's
    Section 5.3 emulation does.

    Parameters
    ----------
    traffic_split:
        Within-interval allocation, in (0.5, 1.0].  1.0 (default) keeps
        the pure switchback; e.g. 0.95 runs the production 95/5 variant.
        The unit count is scaled up if needed so the minority arm keeps
        at least one unit (0.95 needs 20 units), which makes production
        splits markedly more expensive than the pure default.
    quick:
        Fewer, shorter intervals for smoke tests.
    executor:
        Runs the arms of all intervals (default: a serial, uncached one).
    seed:
        Seeds both the interval randomization (via
        :class:`SwitchbackDesign`) and the churn arrivals.
    """
    if not 0.5 < traffic_split <= 1.0:
        raise ValueError("traffic_split must be in (0.5, 1.0]")

    n_intervals, scale = _ramp_scale(quick)
    n_units = RAMP_UNITS
    duration_s = scale["duration_s"]

    if traffic_split < 1.0:
        # The minority arm needs at least one unit; scale the unit count
        # up until round(n * split) stays interior.  The lower clamp is a
        # strict majority, not 1: banker's rounding of e.g. 0.6 * 4 would
        # otherwise land on exactly n/2 and silently degenerate the split
        # into identical 50/50 treatment and control intervals.
        n_units = max(n_units, math.ceil(1.0 / (1.0 - traffic_split)))
        k_hi = min(
            max(round(n_units * traffic_split), n_units // 2 + 1), n_units - 1
        )
        k_lo = n_units - k_hi
        # The realized mixed arms plus the pure counterfactuals (ground
        # truth and event study always compare the pure allocations).
        allocations = tuple(sorted({0, k_lo, k_hi, n_units}))
    else:
        k_hi, k_lo = n_units, 0
        allocations = (0, n_units)

    # Balanced pair-wise randomization: with only a handful of intervals
    # a plain coin flip per interval frequently lands 3-1 or worse, and
    # an unbalanced switchback straddling a demand ramp re-imports the
    # very time confound it exists to remove.  Flipping one interval per
    # consecutive pair keeps the arms balanced *and* random — then the
    # paper's design object turns the chosen days into the plan.
    rng = random.Random(f"switchback-ramp:{seed}")
    chosen: list[int] = []
    for start in range(0, n_intervals, 2):
        pair = list(range(start, min(start + 2, n_intervals)))
        chosen.append(pair[rng.randrange(len(pair))])
    design = SwitchbackDesign(
        treatment_allocation=1.0,
        control_allocation=0.0,
        treatment_days=tuple(chosen),
    )
    treatment_intervals = design.treatment_days_for(range(n_intervals))
    treated_set = set(treatment_intervals)

    def multiplier_at(boundary: int) -> float:
        # Demand at interval boundary ``boundary`` (0 .. n_intervals):
        # interval i ramps from boundary i to boundary i+1, so the final
        # interval ends exactly at ``RAMP_FACTOR`` — no extrapolation.
        return 1.0 + (RAMP_FACTOR - 1.0) * boundary / n_intervals

    multipliers = tuple(multiplier_at(i) for i in range(n_intervals + 1))

    # One sweep per interval over the two pure allocations the analysis
    # needs: the all-control and all-treated arms serve as the realized
    # interval (whichever the design assigned), its counterfactual for
    # the ground truth, and the event-study emulation — all from the
    # same cached results.
    sweeps = []
    for i in range(n_intervals):
        demand = RampDemand(
            start_level=multiplier_at(i),
            end_level=multiplier_at(i + 1),
            t0=0.0,
            t1=duration_s,
        )
        source = TrafficSource(
            arrivals=PoissonArrivals(RAMP_BASE_CHURN_PER_S),
            sizes=RAMP_SIZES,
            demand=demand,
            label="ramp-churn",
        )
        sweep, _ = sweep_connection_treatment(
            quick,
            n_units=n_units,
            allocations=allocations,
            traffic_sources=(source,),
            seed=seed * 1009 + i,
            executor=executor,
            **scale,
        )
        sweeps.append(sweep)

    # The design's comparison: the treated arm of treatment intervals vs
    # the control arm of control intervals — at the realized (possibly
    # mixed) allocations.
    switchback_treated = [
        sweeps[i].results[k_hi].group_mean_throughput(True)
        for i in range(n_intervals)
        if i in treated_set
    ]
    switchback_control = [
        sweeps[i].results[k_lo].group_mean_throughput(False)
        for i in range(n_intervals)
        if i not in treated_set
    ]
    switchback_estimate = (
        sum(switchback_treated) / len(switchback_treated)
        - sum(switchback_control) / len(switchback_control)
    )

    within_interval: float | None = None
    if traffic_split < 1.0:
        # The naive production estimator: treated minus control *within*
        # each realized mixed interval, averaged across intervals.
        per_interval = []
        for i in range(n_intervals):
            k = k_hi if i in treated_set else k_lo
            result = sweeps[i].results[k]
            per_interval.append(
                result.group_mean_throughput(True)
                - result.group_mean_throughput(False)
            )
        within_interval = sum(per_interval) / n_intervals

    truth_per_interval = [
        sweeps[i].results[n_units].group_mean_throughput(True)
        - sweeps[i].results[0].group_mean_throughput(False)
        for i in range(n_intervals)
    ]
    truth_tte = sum(truth_per_interval) / n_intervals

    midpoint = n_intervals // 2
    before = [
        sweeps[i].results[0].group_mean_throughput(False) for i in range(midpoint)
    ]
    after = [
        sweeps[i].results[n_units].group_mean_throughput(True)
        for i in range(midpoint, n_intervals)
    ]
    event_study_estimate = sum(after) / len(after) - sum(before) / len(before)

    return SwitchbackRampOutcome(
        n_intervals=n_intervals,
        treatment_intervals=treatment_intervals,
        demand_multipliers=multipliers,
        truth_tte=truth_tte,
        switchback_estimate=switchback_estimate,
        event_study_estimate=event_study_estimate,
        traffic_split=traffic_split,
        within_interval_ab_estimate=within_interval,
        allocation_units=None if traffic_split >= 1.0 else (k_lo, k_hi),
    )


def _parse_churn_rates(text: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if (
        not values
        or not all(0 <= v < math.inf for v in values)
        or len(set(values)) != len(values)
    ):
        parser.error(
            f"--churn-rates needs distinct, finite, non-negative comma-separated "
            f"flow-per-second values, got {text!r}"
        )
    return values


def _add_churn_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--churn-rates",
        default="0,2,6",
        help=(
            "churn intensities, comma-separated flow arrivals per "
            "second (default: 0,2,6; include 0 for the static "
            "reference)"
        ),
    )
    parser.add_argument(
        "--traffic-split",
        type=float,
        default=1.0,
        help=(
            "within-interval allocation of the switchback-ramp "
            "scenario, in (0.5, 1]: 1 (default) runs pure 100/0 "
            "intervals, 0.95 the production 95/5 variant (scales the "
            "unit count up so the 5%% arm keeps a unit — markedly "
            "slower)"
        ),
    )


def _render_churn(
    args: argparse.Namespace, parser: argparse.ArgumentParser, executor: ParallelExecutor
) -> list[str]:
    """The churn sweep, then the switchback-vs-event-study ramp."""
    if not 0.5 < args.traffic_split <= 1.0:
        parser.error("--traffic-split must be in (0.5, 1.0]")
    comparison = run_churn_experiment(
        churn_rates=_parse_churn_rates(args.churn_rates, parser),
        quick=args.quick,
        executor=executor,
        seed=args.seed,
    )
    ramp = run_switchback_ramp_experiment(
        traffic_split=args.traffic_split, quick=args.quick, executor=executor, seed=args.seed
    )
    return [*comparison.summary_lines(), "", *ramp.summary_lines()]


FIGURES = (
    Figure(
        name="topo_churn",
        help="bias under flow churn + switchback-vs-ramp",
        group="topology",
        knob="quick",
        # Arrival times and flow sizes are drawn from the seed.
        seeded=True,
        cells=lambda quick, seed: run_churn_experiment(
            quick=quick, seed=0 if seed is None else seed
        ).cells(),
        render=_render_churn,
        add_arguments=_add_churn_arguments,
    ),
)
