"""The paired-link bitrate-capping experiment (Section 4, Figures 5-9, 13).

The full protocol generates three workload weeks:

1. a baseline week with no treatment anywhere (used to validate that the
   two links are statistically similar — Section 4.1);
2. the five-day main experiment: link 1 at 95 % capping, link 2 at 5 %;
3. an A/A week after the experiment (used to calibrate the alternate
   designs of Section 5).

From the main-experiment data, the harness computes every estimate the
paper reports: the two naive within-link A/B effects, the approximate TTE,
the spillover (Figure 5), the hourly throughput time series (Figure 6),
the four-cell means for throughput and minimum RTT (Figures 7-8), the
peak/off-peak retransmission split (Figure 9), and the hourly-vs-account
confidence-interval comparison (Figure 13).  Each of the four Figure 5
comparisons runs the first time its estimates are read.

:meth:`PairedLinkExperiment.run` generates all three weeks unless told
otherwise.  Each registered figure generates only the week it reads:
``baseline`` the baseline week, and fig5, fig7, fig8, fig9 and fig10 the
experiment week.  No figure reads the A/A week.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Mapping, Sequence
from functools import cached_property

import numpy as np

from repro.core.analysis.pipeline import AnalysisConfig, MetricEstimate, analyze_metric
from repro.core.designs.base import ComparisonSpec, ExperimentDesign
from repro.core.designs.paired_link import DESIGN
from repro.core.experiment import evaluate_comparisons
from repro.core.units import SESSION_METRICS, OutcomeTable
from repro.experiments.alternate_designs import AlternateDesignComparison, compare_designs
from repro.experiments.baseline_validation import compare_links_at_baseline
from repro.experiments.figures import Figure
from repro.reporting import format_table
from repro.runner.executor import ParallelExecutor
from repro.runner.spec import ScenarioSpec, register_task
from repro.workload.netflix import PairedLinkWorkload, WorkloadConfig

__all__ = ["PairedLinkExperiment", "PairedLinkOutcome", "CellMeans"]

#: Days of the main experiment (paper: Wednesday-Sunday, five days).
EXPERIMENT_DAYS: tuple[int, ...] = (0, 1, 2, 3, 4)

#: Days of the pre-experiment baseline week.
BASELINE_DAYS: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6)

#: Days of the post-experiment A/A week.
AA_DAYS: tuple[int, ...] = (0, 1, 2, 3, 4)

#: The protocol's workload weeks, in the order they are generated.
WEEKS: tuple[str, ...] = ("baseline", "experiment", "aa")

#: Estimand labels reported in Figure 5, in display order.
FIGURE5_ESTIMANDS: tuple[str, ...] = ("ab_0.05", "ab_0.95", "tte", "spillover")


@dataclass(frozen=True)
class CellMeans:
    """Mean of one metric in the four cells of the paired-link experiment.

    The four cells are (link 1 treated, link 1 control, link 2 treated,
    link 2 control); the paper's Figures 7 and 8 plot exactly these.
    """

    metric: str
    link1_treated: float
    link1_control: float
    link2_treated: float
    link2_control: float

    def normalized(self, reference: float | None = None) -> "CellMeans":
        """Return the cells divided by ``reference`` (default: smallest cell)."""
        values = (
            self.link1_treated,
            self.link1_control,
            self.link2_treated,
            self.link2_control,
        )
        ref = reference if reference is not None else min(values)
        if ref == 0:
            raise ZeroDivisionError("cannot normalize by a zero reference")
        return CellMeans(self.metric, *(v / ref for v in values))

    @property
    def approximate_tte(self) -> float:
        """TTE read off the cells: link-1 treated minus link-2 control."""
        return self.link1_treated - self.link2_control

    @property
    def spillover(self) -> float:
        """Spillover read off the cells: link-1 control minus link-2 control."""
        return self.link1_control - self.link2_control

    @property
    def naive_high(self) -> float:
        """Naive A/B effect within link 1 (the 95 % test)."""
        return self.link1_treated - self.link1_control

    @property
    def naive_low(self) -> float:
        """Naive A/B effect within link 2 (the 5 % test)."""
        return self.link2_treated - self.link2_control


class _Estimates(Mapping[str, dict[str, MetricEstimate]]):
    """The design's estimands, in order, each evaluated when first read.

    ``estimates[estimand][metric]`` is a :class:`MetricEstimate`.  Reading
    an estimand runs its comparison for every session metric once, through
    :func:`~repro.core.experiment.evaluate_comparisons`; :meth:`metric`
    runs it for one metric only.
    """

    def __init__(
        self,
        table: OutcomeTable,
        comparisons: Sequence[ComparisonSpec],
        baselines: dict[str, float],
    ) -> None:
        self._table = table
        self._comparisons = {spec.estimand: spec for spec in comparisons}
        self._baselines = baselines
        self._evaluated: dict[str, dict[str, MetricEstimate]] = {}

    def __getitem__(self, estimand: str) -> dict[str, MetricEstimate]:
        if estimand not in self._evaluated:
            spec = self._comparisons[estimand]
            self._evaluated[estimand] = evaluate_comparisons(
                self._table, [spec], baselines=self._baselines
            )[estimand]
        return self._evaluated[estimand]

    def metric(self, estimand: str, metric: str) -> MetricEstimate:
        """``self[estimand][metric]``, analyzing no other metric.

        An estimand already read in full answers from its evaluation;
        otherwise only ``metric`` is analyzed, and nothing is kept.
        """
        if estimand in self._evaluated:
            return self._evaluated[estimand][metric]
        return evaluate_comparisons(
            self._table,
            [self._comparisons[estimand]],
            metrics=(metric,),
            baselines=self._baselines,
        )[estimand][metric]

    def __iter__(self) -> Iterator[str]:
        return iter(self._comparisons)

    def __len__(self) -> int:
        return len(self._comparisons)


@dataclass
class PairedLinkOutcome:
    """Everything produced by one run of the paired-link experiment.

    ``tables`` holds the workload weeks the run generated, by name (see
    :data:`WEEKS`); reading a week the run did not generate raises
    ``ValueError``.  The baselines and estimates derive from the
    experiment week and are computed the first time they are read.
    """

    config: WorkloadConfig
    tables: dict[str, OutcomeTable]

    def _week(self, week: str) -> OutcomeTable:
        try:
            return self.tables[week]
        except KeyError:
            raise ValueError(
                f"this run did not generate the {week!r} week (it generated "
                f"{list(self.tables)}); pass it in PairedLinkExperiment.run(weeks=...)"
            ) from None

    @property
    def baseline_table(self) -> OutcomeTable:
        """The untreated baseline week (Section 4.1)."""
        return self._week("baseline")

    @property
    def experiment_table(self) -> OutcomeTable:
        """The five-day main experiment week."""
        return self._week("experiment")

    @property
    def aa_table(self) -> OutcomeTable:
        """The post-experiment A/A week (Section 5)."""
        return self._week("aa")

    @cached_property
    def baselines(self) -> dict[str, float]:
        """Per-metric mean of the global control condition.

        Everything is normalized by the control sessions on the
        mostly-uncapped link (Appendix B.1).
        """
        global_control = self.experiment_table.where(link=DESIGN.control_link, treated=0)
        return {metric: global_control.mean(metric) for metric in SESSION_METRICS}

    @cached_property
    def estimates(self) -> _Estimates:
        """The design's four estimands, each computed when first read."""
        return _Estimates(
            self.experiment_table,
            DESIGN.comparisons(self.config.links, EXPERIMENT_DAYS),
            self.baselines,
        )

    # -- Figure 5 -----------------------------------------------------------------

    def figure5_rows(self) -> list[dict[str, object]]:
        """Rows of Figure 5: per metric, the four estimates in percent."""
        rows: list[dict[str, object]] = []
        for metric in SESSION_METRICS:
            row: dict[str, object] = {"metric": metric}
            for estimand in FIGURE5_ESTIMANDS:
                estimate = self.estimates[estimand][metric]
                row[estimand] = estimate.relative_percent
                row[f"{estimand}_ci"] = (
                    100.0 * estimate.relative.ci_low,
                    100.0 * estimate.relative.ci_high,
                )
            rows.append(row)
        return rows

    def estimate(self, estimand: str, metric: str) -> MetricEstimate:
        """One estimate (e.g. ``estimate("tte", "throughput_mbps")``).

        Analyzes only ``metric``, unless the estimand was already read in
        full through :attr:`estimates`.
        """
        return self.estimates.metric(estimand, metric)

    # -- Figure 6 -----------------------------------------------------------------

    def hourly_throughput_series(
        self, table: OutcomeTable, day: int
    ) -> dict[int, dict[int, float]]:
        """Mean client throughput per (link, hour) for one day, normalized.

        Returns ``series[link][hour]`` normalized by the largest hourly mean
        across both links, matching the paper's Figure 6 presentation.
        """
        day_table = table.where(day=day)
        raw: dict[int, dict[int, float]] = {}
        largest = 0.0
        for link in (DESIGN.treated_link, DESIGN.control_link):
            link_table = day_table.where(link=link)
            per_hour = link_table.groupby_mean("hour", "throughput_mbps")
            raw[link] = {int(h): v for h, v in per_hour.items()}
            if per_hour:
                largest = max(largest, max(per_hour.values()))
        if largest <= 0:
            raise ValueError(f"no throughput data for day {day}")
        return {
            link: {h: v / largest for h, v in hours.items()} for link, hours in raw.items()
        }

    def figure6_series(
        self, saturday_day: int | None = None
    ) -> dict[str, dict[int, dict[int, float]]]:
        """Baseline vs experiment Saturday throughput time series (Figure 6)."""
        if saturday_day is None:
            saturday_day = self._first_weekend_day(EXPERIMENT_DAYS)
        baseline_saturday = self._first_weekend_day(BASELINE_DAYS)
        return {
            "baseline": self.hourly_throughput_series(self.baseline_table, baseline_saturday),
            "experiment": self.hourly_throughput_series(self.experiment_table, saturday_day),
        }

    def _first_weekend_day(self, days: Sequence[int]) -> int:
        for day in days:
            if self.config.demand.is_weekend(int(day)):
                return int(day)
        return int(list(days)[-1])

    # -- Figures 7 and 8 -------------------------------------------------------------

    def cell_means(self, metric: str) -> CellMeans:
        """Mean of a metric in the four (link, arm) cells."""
        t = self.experiment_table
        link1, link2 = DESIGN.treated_link, DESIGN.control_link
        return CellMeans(
            metric=metric,
            link1_treated=t.where(link=link1, treated=1).mean(metric),
            link1_control=t.where(link=link1, treated=0).mean(metric),
            link2_treated=t.where(link=link2, treated=1).mean(metric),
            link2_control=t.where(link=link2, treated=0).mean(metric),
        )

    def figure7_cells(self) -> CellMeans:
        """Average throughput per cell (Figure 7)."""
        return self.cell_means("throughput_mbps")

    def figure8_cells(self) -> CellMeans:
        """Average minimum RTT per cell, normalized to the smallest (Figure 8)."""
        return self.cell_means("min_rtt_ms").normalized()

    # -- Figure 9 ---------------------------------------------------------------------

    def figure9_retransmit_split(
        self, peak_hours: Sequence[int] = tuple(range(18, 23))
    ) -> dict[str, float]:
        """Relative change in retransmitted-byte fraction, peak vs off-peak.

        Compares capped traffic on link 1 against uncapped traffic on link 2
        (the TTE comparison) separately for peak and off-peak hours.
        """
        peak_set = {int(h) for h in peak_hours}
        t = self.experiment_table
        link1, link2 = DESIGN.treated_link, DESIGN.control_link
        hours = t["hour"].astype(int)
        in_peak = np.isin(hours, np.array(sorted(peak_set)))

        def mean_fraction(link: int, treated: int, peak: bool) -> float:
            subset = t.select(
                (t["link"].astype(int) == link)
                & (t["treated"].astype(int) == treated)
                & (in_peak == peak)
            )
            return subset.mean("retransmit_fraction")

        result: dict[str, float] = {}
        for label, peak in (("peak", True), ("off_peak", False)):
            treated_mean = mean_fraction(link1, 1, peak)
            control_mean = mean_fraction(link2, 0, peak)
            result[label] = (treated_mean - control_mean) / control_mean
        overall = self.estimate("tte", "retransmit_fraction")
        result["overall"] = overall.relative.estimate
        return result

    # -- Figure 13 -----------------------------------------------------------------------

    def figure13_ci_comparison(
        self, metrics: Sequence[str] = SESSION_METRICS
    ) -> dict[str, dict[str, MetricEstimate]]:
        """Naive 95 % A/B effects under hourly vs account-level aggregation."""
        link1 = DESIGN.treated_link
        table = self.experiment_table.where(link=link1)
        treated = table.where(treated=1)
        control = table.where(treated=0)
        out: dict[str, dict[str, MetricEstimate]] = {"hourly": {}, "account": {}}
        for metric in metrics:
            baseline = self.baselines[metric]
            out["hourly"][metric] = analyze_metric(
                treated,
                control,
                metric,
                "ab_0.95_hourly",
                baseline=baseline,
                config=AnalysisConfig(aggregation="hourly"),
            )
            out["account"][metric] = analyze_metric(
                treated,
                control,
                metric,
                "ab_0.95_account",
                baseline=baseline,
                config=AnalysisConfig(aggregation="account"),
            )
        return out


# -- the three workload weeks, as runner tasks ---------------------------------


@register_task("workload.baseline_table")
def generate_baseline_table(
    config: WorkloadConfig, days: Sequence[int], seed: int | None = None
) -> OutcomeTable:
    """The untreated baseline week of the paired-link workload."""
    return PairedLinkWorkload(config).generate_baseline(tuple(days))


@register_task("workload.experiment_table")
def generate_experiment_table(
    config: WorkloadConfig,
    design: ExperimentDesign,
    days: Sequence[int],
    seed: int | None = None,
) -> OutcomeTable:
    """The main experiment week under a paired-link allocation plan."""
    plan = design.allocation_plan(config.links, tuple(days))
    return PairedLinkWorkload(config).generate(plan, tuple(days), treatment_active=True)


@register_task("workload.aa_table")
def generate_aa_table(
    config: WorkloadConfig, days: Sequence[int], seed: int | None = None
) -> OutcomeTable:
    """The post-experiment A/A week (labelled but never capped)."""
    return PairedLinkWorkload(config).generate_aa_test(tuple(days))


def _week_spec(config: WorkloadConfig, week: str) -> ScenarioSpec:
    """The runner spec that generates one workload week."""
    if week == "baseline":
        task, params = "workload.baseline_table", {"config": config, "days": BASELINE_DAYS}
    elif week == "experiment":
        task = "workload.experiment_table"
        params = {"config": config, "design": DESIGN, "days": EXPERIMENT_DAYS}
    elif week == "aa":
        task, params = "workload.aa_table", {"config": config, "days": AA_DAYS}
    else:
        raise ValueError(f"unknown week {week!r}; choose from {WEEKS}")
    return ScenarioSpec(task=task, params=params, label=f"paired_link[{week}]")


@dataclass
class PairedLinkExperiment:
    """Configuration and runner for the full paired-link protocol.

    The protocol itself is fixed: the paper's :data:`DESIGN` over
    :data:`BASELINE_DAYS`, :data:`EXPERIMENT_DAYS` and :data:`AA_DAYS`,
    analyzed with the default :class:`AnalysisConfig`.

    Parameters
    ----------
    config:
        Workload configuration (session volumes, congestion model, seeds).
    """

    config: WorkloadConfig = field(default_factory=WorkloadConfig)

    def run(
        self, executor: ParallelExecutor | None = None, *, weeks: Sequence[str] = WEEKS
    ) -> PairedLinkOutcome:
        """Generate the requested workload weeks; the outcome analyzes them.

        ``weeks`` names the weeks to generate, from :data:`WEEKS`; the
        default is all three, the full protocol.  Each registered figure
        asks only for the week it reads: ``baseline`` for the baseline
        figure, ``experiment`` for fig5 and fig7-fig10.  The estimates
        need the experiment week and are computed when first read.

        Each week is independently seeded (its table draws from
        ``config.seed`` plus its own offset), so a week's table is the
        same whichever other weeks run beside it.  The weeks run as
        scenario specs on ``executor`` (default: a serial, uncached one),
        in :data:`WEEKS` order, with results bit-identical for any worker
        count.
        """
        specs = {week: _week_spec(self.config, week) for week in weeks}
        if not specs:
            raise ValueError("weeks must name at least one week")
        ran = [week for week in WEEKS if week in specs]
        tables = (executor or ParallelExecutor()).map([specs[week] for week in ran])
        return PairedLinkOutcome(config=self.config, tables=dict(zip(ran, tables)))


# -- the paired-link figures ----------------------------------------------------
#
# Every paired-link figure reduces one run of the experiment above; the
# figure's seed is the workload seed and ``quick`` halves the sessions.


def _run_workload(
    quick: bool, seed: int, week: str, executor: ParallelExecutor | None = None
) -> PairedLinkOutcome:
    config = WorkloadConfig(sessions_at_peak=150 if quick else 300, seed=seed)
    return PairedLinkExperiment(config=config).run(executor, weeks=(week,))


def _paired_figure(
    name: str,
    help: str,
    week: str,
    cells: Callable[[PairedLinkOutcome], dict[str, float]],
    table: Callable[[PairedLinkOutcome], str],
) -> Figure:
    """A figure reduced from one paired-link run: ``cells`` for sweeps and
    campaigns, ``table(outcome)`` for ``repro <name>``.  The run generates
    only ``week``, the one workload week the figure reads, on the
    command's executor; the figure computes only the estimates it reads."""
    return Figure(
        name=name,
        help=help,
        group="paired-link",
        knob="quick",
        seeded=True,
        cells=lambda quick, seed: cells(_run_workload(quick, 0 if seed is None else seed, week)),
        render=lambda args, parser, executor: [
            table(_run_workload(args.quick, args.seed, week, executor))
        ],
    )


def _cell_means(cells: CellMeans) -> dict[str, float]:
    return {
        "link1_treated": cells.link1_treated,
        "link1_control": cells.link1_control,
        "link2_treated": cells.link2_treated,
        "link2_control": cells.link2_control,
    }


def _cell_means_table(header: str, cells: CellMeans, spec: str) -> str:
    return format_table(
        ["cell", header],
        [
            ["link 1, capped 95%", format(cells.link1_treated, spec)],
            ["link 1, uncapped 5%", format(cells.link1_control, spec)],
            ["link 2, capped 5%", format(cells.link2_treated, spec)],
            ["link 2, uncapped 95%", format(cells.link2_control, spec)],
        ],
    )


def _retransmit_table(outcome: PairedLinkOutcome) -> str:
    split = outcome.figure9_retransmit_split()
    return format_table(
        ["period", "retransmit change"],
        [
            ["peak", f"{100 * split['peak']:+.1f}%"],
            ["off-peak", f"{100 * split['off_peak']:+.1f}%"],
            ["overall TTE", f"{100 * split['overall']:+.1f}%"],
        ],
    )


def _design_comparison(outcome: PairedLinkOutcome) -> AlternateDesignComparison:
    return compare_designs(
        outcome.experiment_table,
        EXPERIMENT_DAYS,
        outcome.estimates["tte"],
        baselines=outcome.baselines,
    )


def _design_cells(outcome: PairedLinkOutcome) -> dict[str, float]:
    comparison = _design_comparison(outcome)
    return {
        f"{design}:{metric}": getattr(comparison, design)[metric].relative_percent
        for design in comparison.DESIGNS
        for metric in SESSION_METRICS
    }


def _design_table(outcome: PairedLinkOutcome) -> str:
    comparison = _design_comparison(outcome)
    return format_table(
        ["metric", "paired link", "switchback", "event study"],
        [
            [row["metric"], *(f"{row[design]:+.1f}%" for design in comparison.DESIGNS)]
            for row in comparison.rows(SESSION_METRICS)
        ],
    )


FIGURES = (
    _paired_figure(
        "baseline",
        "Section 4.1 baseline link-similarity table",
        week="baseline",
        cells=lambda outcome: {
            f"rel_diff_pct:{row.metric}": row.relative_percent
            for row in compare_links_at_baseline(outcome.baseline_table)
        },
        table=lambda outcome: format_table(
            ["metric", "link1 vs link2", "significant"],
            [
                [r.metric, f"{r.relative_percent:+.1f}%", "yes" if r.significant else "no"]
                for r in compare_links_at_baseline(outcome.baseline_table)
            ],
        ),
    ),
    _paired_figure(
        "fig5",
        "paired-link treatment-effect table (Figure 5)",
        week="experiment",
        cells=lambda outcome: {
            f"{estimand}:{metric}": outcome.estimates[estimand][metric].relative_percent
            for estimand in FIGURE5_ESTIMANDS
            for metric in SESSION_METRICS
        },
        table=lambda outcome: format_table(
            ["metric", "A/B 5%", "A/B 95%", "TTE", "spillover"],
            [
                [row["metric"], *(f"{row[e]:+.1f}%" for e in FIGURE5_ESTIMANDS)]
                for row in outcome.figure5_rows()
            ],
        ),
    ),
    _paired_figure(
        "fig7",
        "paired-link throughput cells (Figure 7)",
        week="experiment",
        cells=lambda outcome: _cell_means(outcome.figure7_cells()),
        table=lambda outcome: _cell_means_table(
            "throughput (Mb/s)", outcome.figure7_cells(), ".2f"
        ),
    ),
    _paired_figure(
        "fig8",
        "paired-link min-RTT cells (Figure 8)",
        week="experiment",
        cells=lambda outcome: _cell_means(outcome.figure8_cells()),
        table=lambda outcome: _cell_means_table(
            "min RTT (normalized)", outcome.figure8_cells(), ".3f"
        ),
    ),
    _paired_figure(
        "fig9",
        "paired-link retransmission split (Figure 9)",
        week="experiment",
        cells=lambda outcome: {
            name: 100.0 * value for name, value in outcome.figure9_retransmit_split().items()
        },
        table=_retransmit_table,
    ),
    _paired_figure(
        "fig10",
        "switchback / event-study design comparison (Figure 10)",
        week="experiment",
        cells=_design_cells,
        table=_design_table,
    ),
)
