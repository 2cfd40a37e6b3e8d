"""Lab A/B-test harness on the fluid simulator.

Recreates the structure of the paper's Section 3 experiments: ``n`` units
(applications) share one bottleneck; the experimenter sweeps the number of
treated units from 0 to ``n`` and records each group's average throughput
and retransmission rate.  Every point of the sweep is one possible A/B
test; the endpoints give the total treatment effect; the control group's
drift gives the spillover.

The sweeps return :class:`~repro.core.estimands.AllocationSweep`, the same
result the packet-level sweep returns, so the causal machinery of
:mod:`repro.core` applies directly to the lab data — the same workflow an
experimenter would follow.  Each arm is a closed-form allocation, so the
sweeps run their arms in this process rather than through the runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.core.estimands import AllocationSweep
from repro.netsim.fluid.application import Application
from repro.netsim.fluid.competition import (
    CompetitionModel,
    allocate_throughput,
    link_loss_rate,
)
from repro.netsim.fluid.link import BottleneckLink

__all__ = [
    "LabExperimentResult",
    "run_lab_experiment",
    "run_lab_sweep",
    "run_isolated_sweep",
]

#: Metrics measured for each application in a lab experiment.
LAB_METRICS: tuple[str, ...] = ("throughput_mbps", "retransmit_fraction")


@dataclass(frozen=True)
class LabExperimentResult:
    """Per-application outcomes of one lab run at a fixed allocation.

    Attributes
    ----------
    applications:
        The applications in the run (treatment configuration already applied).
    throughput_mbps:
        Average long-term throughput of each application, keyed by app id.
    retransmit_fraction:
        Fraction of bytes retransmitted by each application, keyed by app id.
    """

    applications: tuple[Application, ...]
    throughput_mbps: Mapping[int, float]
    retransmit_fraction: Mapping[int, float]

    def group_mean(self, metric: str, treated: bool) -> float:
        """Mean of a metric over the treated or control applications."""
        values = self.group_values(metric, treated)
        if not values:
            raise ValueError(
                f"no {'treated' if treated else 'control'} applications in this run"
            )
        return float(np.mean(values))

    def group_values(self, metric: str, treated: bool) -> list[float]:
        """Per-application values of a metric for one arm."""
        if metric not in LAB_METRICS:
            raise KeyError(f"unknown lab metric {metric!r}; expected one of {LAB_METRICS}")
        source = (
            self.throughput_mbps if metric == "throughput_mbps" else self.retransmit_fraction
        )
        return [
            float(source[a.app_id]) for a in self.applications if a.treated == treated
        ]


def run_lab_experiment(
    applications: Sequence[Application],
    link: BottleneckLink | None = None,
    model: CompetitionModel | None = None,
    noise: float = 0.0,
    seed: int | None = None,
) -> LabExperimentResult:
    """Run one lab test: all applications share the bottleneck.

    Parameters
    ----------
    applications:
        The applications sharing the link.
    link:
        The bottleneck (defaults to the paper's 10 Gb/s / 1 ms / 1 BDP link).
    model:
        Fluid competition model parameters.
    noise:
        Relative standard deviation of multiplicative measurement noise
        applied to each application's metrics (0 disables noise).
    seed:
        Seed for the measurement noise.
    """
    link = link or BottleneckLink()
    model = model or CompetitionModel()
    throughput = allocate_throughput(link, applications, model)
    loss = link_loss_rate(link, applications, model)

    rng = np.random.default_rng(seed)
    noisy_throughput: dict[int, float] = {}
    noisy_retrans: dict[int, float] = {}
    for app in applications:
        t_factor = 1.0 + (rng.normal(0.0, noise) if noise > 0 else 0.0)
        r_factor = 1.0 + (rng.normal(0.0, noise) if noise > 0 else 0.0)
        noisy_throughput[app.app_id] = max(throughput[app.app_id] * t_factor, 0.0)
        noisy_retrans[app.app_id] = float(np.clip(loss * r_factor, 0.0, 1.0))

    return LabExperimentResult(
        applications=tuple(applications),
        throughput_mbps=noisy_throughput,
        retransmit_fraction=noisy_retrans,
    )


def _arm_applications(
    n_units: int,
    n_treated: int,
    treatment_factory: Callable[[int], Application],
    control_factory: Callable[[int], Application],
) -> list[Application]:
    """The applications of one sweep arm: the first ``n_treated`` ids treated."""
    return [
        treatment_factory(i).as_treated() if i < n_treated else control_factory(i).as_control()
        for i in range(n_units)
    ]


def run_lab_sweep(
    n_units: int,
    treatment_factory: Callable[[int], Application],
    control_factory: Callable[[int], Application],
    link: BottleneckLink | None = None,
    model: CompetitionModel | None = None,
    noise: float = 0.0,
    seed: int | None = None,
) -> AllocationSweep:
    """Sweep the number of treated applications from 0 to ``n_units``.

    Parameters
    ----------
    n_units:
        Number of applications sharing the link in every run (paper: 10).
    treatment_factory, control_factory:
        Callables mapping an application id to a treated / control
        :class:`Application`.  The first ``k`` ids are treated in the run
        with ``k`` treated units.
    link, model, noise:
        Passed through to :func:`run_lab_experiment`.
    seed:
        The run with ``k`` treated units draws its noise from ``seed + k``.
    """
    if n_units < 1:
        raise ValueError("n_units must be at least 1")
    sweep = AllocationSweep(n_units)
    for k in range(n_units + 1):
        sweep.results[k] = run_lab_experiment(
            _arm_applications(n_units, k, treatment_factory, control_factory),
            link=link,
            model=model,
            noise=noise,
            seed=None if seed is None else seed + k,
        )
    return sweep


def run_isolated_sweep(
    n_units: int,
    treatment_factory: Callable[[int], Application],
    control_factory: Callable[[int], Application],
    link: BottleneckLink | None = None,
    model: CompetitionModel | None = None,
) -> AllocationSweep:
    """Sweep in which every application has a dedicated (non-shared) link.

    This realizes the "no interference" world of the paper's Figure 1a:
    each unit's outcome cannot depend on other units' assignments because
    they share nothing.  Each application receives its own bottleneck with
    an equal slice ``capacity / n_units`` of the original link.
    """
    if n_units < 1:
        raise ValueError("n_units must be at least 1")
    link = link or BottleneckLink()
    slice_link = BottleneckLink(
        capacity_gbps=link.capacity_gbps / n_units,
        base_rtt_ms=link.base_rtt_ms,
        buffer_bdp=link.buffer_bdp,
        mtu_bytes=link.mtu_bytes,
    )
    sweep = AllocationSweep(n_units)
    for k in range(n_units + 1):
        throughput: dict[int, float] = {}
        retrans: dict[int, float] = {}
        apps = _arm_applications(n_units, k, treatment_factory, control_factory)
        for app in apps:
            solo = run_lab_experiment([app], link=slice_link, model=model)
            throughput[app.app_id] = solo.throughput_mbps[app.app_id]
            retrans[app.app_id] = solo.retransmit_fraction[app.app_id]
        sweep.results[k] = LabExperimentResult(tuple(apps), throughput, retrans)
    return sweep
