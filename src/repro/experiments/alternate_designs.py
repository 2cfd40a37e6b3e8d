"""Section 5 — emulated switchback experiments and event studies.

The paired-link experiment ran *both* a 95 % and a 5 % allocation
simultaneously for five days.  That lets the paper ask: what would an
experimenter have measured if they had instead run

* an **event study** — pre-period at 5 % capping, then deploy 95 % capping
  from Friday onward (Figure 11); or
* a **switchback** — alternate whole days between 95 % capping and 5 %
  capping (Figure 12)?

Following Appendix B.2, the emulation takes the treated sessions on link 1
during the days assigned to treatment, the control sessions on link 2
during the days assigned to control, and runs the usual hourly
fixed-effects regression.  Figure 10 compares the TTE estimated by the two
emulated designs against the paired-link estimate.

The module also implements the A/A calibration the paper performed in the
week after the experiment: re-running the emulated analyses on a week where
no traffic was capped anywhere, and counting false positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import ClassVar

from repro.core.analysis.pipeline import AnalysisConfig, MetricEstimate
from repro.core.designs.base import CellSelector, ComparisonSpec
from repro.core.designs.event_study import EventStudyDesign
from repro.core.designs.paired_link import DESIGN
from repro.core.designs.switchback import SwitchbackDesign
from repro.core.experiment import evaluate_comparisons
from repro.core.units import SESSION_METRICS, OutcomeTable

__all__ = [
    "AlternateDesignComparison",
    "emulate_switchback",
    "emulate_event_study",
    "emulate_day_split",
    "run_aa_calibration",
    "compare_designs",
]


def emulate_day_split(
    table: OutcomeTable,
    treatment_days: Sequence[int],
    control_days: Sequence[int],
    metrics: Sequence[str] = SESSION_METRICS,
    baselines: dict[str, float] | None = None,
    config: AnalysisConfig | None = None,
) -> dict[str, MetricEstimate]:
    """Estimate TTE from a day split of the paired-link data.

    For the days assigned to treatment intervals, the emulation uses the
    treated sessions of the mostly-treated link; for control intervals, the
    control sessions of the mostly-control link (Appendix B.2).  Both links
    come from the paper's design, :data:`~repro.core.designs.paired_link.DESIGN`.
    """
    treatment_days = tuple(int(d) for d in treatment_days)
    control_days = tuple(int(d) for d in control_days)
    if not treatment_days or not control_days:
        raise ValueError("both treatment and control day sets must be non-empty")
    overlap = set(treatment_days) & set(control_days)
    if overlap:
        raise ValueError(f"days {sorted(overlap)} appear in both arms")
    spec = ComparisonSpec(
        "tte_emulated",
        CellSelector((DESIGN.treated_link,), treatment_days, treated=True),
        CellSelector((DESIGN.control_link,), control_days, treated=False),
    )
    return evaluate_comparisons(table, [spec], metrics, baselines, config)["tte_emulated"]


def emulate_switchback(
    table: OutcomeTable,
    days: Sequence[int],
    design: SwitchbackDesign | None = None,
    metrics: Sequence[str] = SESSION_METRICS,
    baselines: dict[str, float] | None = None,
    config: AnalysisConfig | None = None,
) -> dict[str, MetricEstimate]:
    """Emulate a switchback experiment from the paired-link data.

    The default design fixes the assignment the paper used: treatment on
    the first, third and fifth days.
    """
    days = [int(d) for d in days]
    if design is None:
        design = SwitchbackDesign(treatment_days=tuple(days[0::2]))
    treatment_days = design.treatment_days_for(days)
    control_days = design.control_days_for(days)
    return emulate_day_split(
        table,
        treatment_days,
        control_days,
        metrics=metrics,
        baselines=baselines,
        config=config,
    )


def emulate_event_study(
    table: OutcomeTable,
    days: Sequence[int],
    design: EventStudyDesign | None = None,
    metrics: Sequence[str] = SESSION_METRICS,
    baselines: dict[str, float] | None = None,
    config: AnalysisConfig | None = None,
) -> dict[str, MetricEstimate]:
    """Emulate an event study (deployment) from the paired-link data.

    The default switches to 95 % capping between the second and third day
    of the five-day experiment — the paper's Thursday/Friday switch.
    """
    days = sorted(int(d) for d in days)
    if design is None:
        design = EventStudyDesign(switch_day=days[len(days) // 2])
    return emulate_day_split(
        table,
        design.post_days(days),
        design.pre_days(days),
        metrics=metrics,
        baselines=baselines,
        config=config,
    )


def run_aa_calibration(
    aa_table: OutcomeTable,
    days: Sequence[int],
    treatment_days: Sequence[int],
    metrics: Sequence[str] = SESSION_METRICS,
    config: AnalysisConfig | None = None,
) -> dict[str, MetricEstimate]:
    """Run an emulated day-split analysis on A/A data (no capping anywhere).

    Every significant estimate returned here is a false positive; the paper
    uses this to show that the switchback day assignment would not have
    produced false positives while contiguous (event-study) splits do,
    because of weekday/weekend seasonality.
    """
    days = [int(d) for d in days]
    treatment_days = [int(d) for d in treatment_days]
    control_days = [d for d in days if d not in set(treatment_days)]
    return emulate_day_split(
        aa_table,
        treatment_days,
        control_days,
        metrics=metrics,
        config=config,
    )


@dataclass
class AlternateDesignComparison:
    """Figure 10: TTE estimates from the three designs, per metric."""

    paired_link: dict[str, MetricEstimate]
    switchback: dict[str, MetricEstimate]
    event_study: dict[str, MetricEstimate]

    #: Display order of the designs.
    DESIGNS: ClassVar[tuple[str, ...]] = ("paired_link", "switchback", "event_study")

    def rows(self, metrics: Sequence[str] = SESSION_METRICS) -> list[dict[str, object]]:
        """One row per metric with each design's relative TTE (percent)."""
        out: list[dict[str, object]] = []
        for metric in metrics:
            row: dict[str, object] = {"metric": metric}
            for design in self.DESIGNS:
                estimate: MetricEstimate = getattr(self, design)[metric]
                row[design] = estimate.relative_percent
                row[f"{design}_ci"] = (
                    100.0 * estimate.relative.ci_low,
                    100.0 * estimate.relative.ci_high,
                )
            out.append(row)
        return out

    def switchback_covers_paired_link(self, metric: str) -> bool:
        """Does the switchback CI cover the paired-link point estimate?"""
        sb = self.switchback[metric].relative
        pl = self.paired_link[metric].relative.estimate
        return sb.covers(pl)


def compare_designs(
    experiment_table: OutcomeTable,
    days: Sequence[int],
    paired_link_estimates: dict[str, MetricEstimate],
    baselines: dict[str, float] | None = None,
    metrics: Sequence[str] = SESSION_METRICS,
    config: AnalysisConfig | None = None,
) -> AlternateDesignComparison:
    """Build the Figure 10 comparison from one paired-link run.

    The switchback and the event study are emulated in-process, each one
    day split of ``experiment_table`` analyzed by
    :func:`~repro.core.experiment.evaluate_comparisons`.
    """
    return AlternateDesignComparison(
        paired_link=paired_link_estimates,
        switchback=emulate_switchback(
            experiment_table, days, metrics=metrics, baselines=baselines, config=config
        ),
        event_study=emulate_event_study(
            experiment_table, days, metrics=metrics, baselines=baselines, config=config
        ),
    )
