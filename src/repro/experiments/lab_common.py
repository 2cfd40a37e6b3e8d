"""Shared machinery for the lab-experiment figures.

The paper's lab figures (Figures 2 and 3) all have the same structure: the
x-axis sweeps the A/B-test allocation (how many of the ten units are
treated), and for every allocation the figure shows the treated and
control groups' mean throughput and retransmission rate.
:class:`LabFigure` packages those rows together with the derived estimands
(naive A/B estimates at each allocation, TTE, spillover) so benchmarks and
examples can print them directly.

The packet labs re-run the paper's Figure 2a treatment on the packet
simulator, each on its own topology: :func:`sweep_connection_treatment`
is that sweep, sized by :func:`sweep_scale`.  They run it once per arm
(a queue discipline, a topology, a churn intensity, an L4S stack) and
compare the arms' naive A/B bias: :class:`BiasComparison` is that
report.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.core.estimands import AllocationSweep, PotentialOutcomeCurve
from repro.netsim.fluid.lab import LAB_METRICS
from repro.netsim.packet.network import PathConfig
from repro.netsim.packet.simulation import FlowConfig
from repro.netsim.packet.sweep import run_packet_sweep

__all__ = [
    "BIAS_ALLOCATION",
    "CELL_ALLOCATIONS",
    "CONTROL_CONNECTIONS",
    "LAB_UNITS",
    "TREATMENT_CONNECTIONS",
    "BiasComparison",
    "LabFigureRow",
    "LabFigure",
    "sweep_connection_treatment",
    "sweep_scale",
    "sweep_to_figure",
]

#: The allocation at which a :class:`BiasComparison` reads each arm's
#: naive A/B estimate.
BIAS_ALLOCATION = 0.5

#: The paper's connection-count treatment (Section 3.1, Figure 2a), which
#: every connection-count lab reuses: treated applications open two TCP
#: connections, control applications one.
TREATMENT_CONNECTIONS = 2
CONTROL_CONNECTIONS = 1

#: Applications sharing the bottleneck in the fluid lab figures (paper: 10).
LAB_UNITS = 10


def sweep_scale(quick: bool) -> dict[str, Any]:
    """Packet-lab sweep sizing: full keeps 8 units and 3 interior points, quick shrinks."""
    if quick:
        return dict(
            n_units=4,
            allocations=(0, 2, 4),
            capacity_mbps=24.0,
            duration_s=6.0,
            warmup_s=2.0,
        )
    return dict(
        n_units=8,
        allocations=(0, 2, 4, 6, 8),
        capacity_mbps=48.0,
        duration_s=10.0,
        warmup_s=3.0,
    )


def sweep_connection_treatment(
    quick: bool,
    *,
    ecn: bool | str = False,
    paced: bool = False,
    path: Callable[[int], PathConfig] | None = None,
    units: str = "applications",
    **sweep: Any,
) -> tuple[AllocationSweep, str]:
    """Sweep the paper's connection-count treatment on the packet simulator.

    Treated applications open :data:`TREATMENT_CONNECTIONS` TCP Reno
    connections, control ones :data:`CONTROL_CONNECTIONS`; every unit
    shares the ECN mode ``ecn`` and the pacing ``paced``, and unit ``i``
    takes ``path(i)`` (the default path without one).  ``sweep`` holds
    the :func:`~repro.netsim.packet.sweep.run_packet_sweep` keywords
    (topology, seed, executor), overriding :func:`sweep_scale` where it
    names the same one.

    Returns the sweep and the description its figures start with,
    ``"<n> <units> using 2 (treatment) or 1 (control) TCP Reno
    connections"``.
    """
    result = run_packet_sweep(
        treatment_factory=lambda i: FlowConfig(
            i,
            cc="reno",
            connections=TREATMENT_CONNECTIONS,
            ecn=ecn,
            paced=paced,
            path=None if path is None else path(i),
        ),
        control_factory=lambda i: FlowConfig(
            i,
            cc="reno",
            connections=CONTROL_CONNECTIONS,
            ecn=ecn,
            paced=paced,
            path=None if path is None else path(i),
        ),
        **{**sweep_scale(quick), **sweep},
    )
    return result, (
        f"{result.n_units} {units} using {TREATMENT_CONNECTIONS} (treatment) or "
        f"{CONTROL_CONNECTIONS} (control) TCP Reno connections"
    )


@dataclass(frozen=True)
class LabFigureRow:
    """One x-axis point of a lab figure: an A/B test at one allocation."""

    n_treated: int
    n_control: int
    allocation: float
    treatment_throughput_mbps: float | None
    control_throughput_mbps: float | None
    treatment_retransmit: float | None
    control_retransmit: float | None


#: The treated counts of a :data:`LAB_UNITS`-unit sweep that
#: :meth:`LabFigure.cells` reads: none and all (the TTEs) and half (the
#: A/B estimate and spillover at 0.5).  A fluid figure's cells run only
#: these; ``repro fig2a`` and the others still run every count.
CELL_ALLOCATIONS: tuple[int, ...] = (0, LAB_UNITS // 2, LAB_UNITS)


@dataclass
class LabFigure:
    """All rows of a lab figure plus the derived causal quantities."""

    name: str
    description: str
    rows: list[LabFigureRow]
    throughput_curve: PotentialOutcomeCurve
    retransmit_curve: PotentialOutcomeCurve

    def tte(self, metric: str) -> float:
        """Total treatment effect for ``throughput_mbps`` or ``retransmit_fraction``."""
        return self._curve(metric).tte()

    def spillover(self, metric: str, allocation: float) -> float:
        """Spillover on control units at the given allocation."""
        return self._curve(metric).spillover(allocation)

    def ab_estimate(self, metric: str, allocation: float) -> float:
        """Naive A/B estimate at the given allocation."""
        return self._curve(metric).ate(allocation)

    def cells(self) -> dict[str, float]:
        """Scalar cells: both TTEs, the 50 % A/B estimate and its spillover."""
        return {
            "tte_throughput_mbps": self.tte("throughput_mbps"),
            "tte_retransmit_fraction": self.tte("retransmit_fraction"),
            "ab_throughput_mbps@0.5": self.ab_estimate("throughput_mbps", 0.5),
            "spillover_throughput@0.5": self.spillover("throughput_mbps", 0.5),
        }

    def _curve(self, metric: str) -> PotentialOutcomeCurve:
        if metric == "throughput_mbps":
            return self.throughput_curve
        if metric == "retransmit_fraction":
            return self.retransmit_curve
        raise KeyError(f"unknown lab metric {metric!r}; expected one of {LAB_METRICS}")

    def summary_lines(self) -> list[str]:
        """Human-readable summary, one line per allocation plus estimands."""
        lines = [f"{self.name}: {self.description}"]
        header = (
            f"{'treated':>8} {'T thr (Mb/s)':>14} {'C thr (Mb/s)':>14} "
            f"{'T retx':>10} {'C retx':>10}"
        )
        lines.append(header)
        for row in self.rows:
            t = row.treatment_throughput_mbps
            c = row.control_throughput_mbps
            t_thr = "-" if t is None else f"{t:.0f}"
            c_thr = "-" if c is None else f"{c:.0f}"
            t_rtx = "-" if row.treatment_retransmit is None else f"{row.treatment_retransmit:.4f}"
            c_rtx = "-" if row.control_retransmit is None else f"{row.control_retransmit:.4f}"
            lines.append(
                f"{row.n_treated:>8} {t_thr:>14} {c_thr:>14} {t_rtx:>10} {c_rtx:>10}"
            )
        lines.append(
            f"TTE throughput = {self.tte('throughput_mbps'):+.1f} Mb/s, "
            f"TTE retransmit = {self.tte('retransmit_fraction'):+.5f}"
        )
        return lines


def sweep_to_figure(sweep: AllocationSweep, name: str, description: str) -> LabFigure:
    """Convert a fluid or packet allocation sweep into the figure representation.

    Each row reads the treated and control means at ``k/n`` off the
    sweep's potential-outcome curves (``None`` at the endpoint with no
    units in that arm).
    """
    throughput = sweep.curve("throughput_mbps")
    retransmit = sweep.curve("retransmit_fraction")
    n = sweep.n_units
    rows = [
        LabFigureRow(
            n_treated=k,
            n_control=n - k,
            allocation=k / n,
            treatment_throughput_mbps=throughput.mu_treatment(k / n) if k > 0 else None,
            control_throughput_mbps=throughput.mu_control(k / n) if k < n else None,
            treatment_retransmit=retransmit.mu_treatment(k / n) if k > 0 else None,
            control_retransmit=retransmit.mu_control(k / n) if k < n else None,
        )
        for k in sorted(sweep.results)
    ]
    return LabFigure(
        name=name,
        description=description,
        rows=rows,
        throughput_curve=throughput,
        retransmit_curve=retransmit,
    )


@dataclass
class BiasComparison:
    """The same allocation sweep under several arms, and each arm's A/B bias.

    ``figures[arm]`` is the :class:`LabFigure` of one arm; :meth:`bias`
    reduces each to how far the naive A/B estimate at
    :data:`BIAS_ALLOCATION` sits from the true total treatment effect.
    Each topology lab subclasses this with its own arms and extra fields,
    and overrides only what its report adds.
    """

    figures: dict[Any, LabFigure]

    #: What the per-arm headings of :meth:`summary_lines` call an arm.
    arm_noun: ClassVar[str] = "arm"
    #: Width the bias table right-aligns arm labels to.
    label_width: ClassVar[int] = 9

    def bias(self, arm: Any, metric: str = "throughput_mbps") -> float:
        """Naive A/B estimate minus the TTE at :data:`BIAS_ALLOCATION` (per unit)."""
        figure = self.figures[arm]
        return figure.ab_estimate(metric, BIAS_ALLOCATION) - figure.tte(metric)

    def heading(self, arm: Any) -> str:
        """The line above one arm's figure summary."""
        return f"=== {self.arm_noun}: {arm} ==="

    def label(self, arm: Any) -> str:
        """One arm's label in the bias table."""
        return f"{arm:>{self.label_width}}"

    def notes(self) -> list[str]:
        """Lines the report prints after the bias table (none by default)."""
        return []

    def summary_lines(self) -> list[str]:
        """Per-arm figure summaries, the bias table, then :meth:`notes`."""
        lines: list[str] = []
        for arm, figure in self.figures.items():
            lines.append(self.heading(arm))
            lines.extend(figure.summary_lines())
        lines.append("")
        lines.append(
            f"A/B-vs-TTE bias at {BIAS_ALLOCATION:.0%} allocation (throughput, Mb/s per unit):"
        )
        for arm in self.figures:
            lines.append(f"  {self.label(arm)}: {self.bias(arm):+.2f}")
        lines.extend(self.notes())
        return lines

    def cells(self) -> dict[str, float]:
        """Scalar cells: each arm's bias."""
        return {f"bias_throughput@0.5:{arm}": self.bias(arm) for arm in self.figures}
