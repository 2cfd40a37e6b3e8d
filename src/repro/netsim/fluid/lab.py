"""Lab A/B-test harness on the fluid simulator.

Recreates the structure of the paper's Section 3 experiments: ``n`` units
(applications) share one bottleneck; the experimenter sweeps the number of
treated units from 0 to ``n`` and records each group's average throughput
and retransmission rate.  Every point of the sweep is one possible A/B
test; the endpoints give the total treatment effect; the control group's
drift gives the spillover.

The harness produces :class:`~repro.core.estimands.PotentialOutcomeCurve`
objects so the causal machinery of :mod:`repro.core` can be applied
directly to the lab data — the same workflow an experimenter would follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.core.estimands import PotentialOutcomeCurve
from repro.netsim.fluid.application import Application
from repro.netsim.fluid.competition import (
    CompetitionModel,
    allocate_throughput,
    link_loss_rate,
)
from repro.netsim.fluid.link import BottleneckLink
from repro.runner.cache import ResultCache
from repro.runner.executor import ParallelExecutor
from repro.runner.spec import ScenarioSpec, register_task

__all__ = [
    "LabExperimentResult",
    "LabSweepResult",
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

    def ab_estimate(self, metric: str) -> float:
        """The naive A/B estimate: treated mean minus control mean."""
        return self.group_mean(metric, True) - self.group_mean(metric, False)


@register_task("netsim.fluid_arm")
def run_lab_experiment(
    applications: Sequence[Application],
    link: BottleneckLink | None = None,
    model: CompetitionModel | None = None,
    noise: float = 0.0,
    seed: int | None = None,
) -> LabExperimentResult:
    """Run one lab test: all applications share the bottleneck.

    Also the ``netsim.fluid_arm`` runner task: each arm of
    :func:`run_lab_sweep` is one call.

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


@dataclass
class LabSweepResult:
    """Results of sweeping the number of treated units from 0 to n.

    Attributes
    ----------
    n_units:
        Total number of applications in every run.
    results:
        ``results[k]`` is the :class:`LabExperimentResult` with ``k`` treated
        applications.
    """

    n_units: int
    results: dict[int, LabExperimentResult] = field(default_factory=dict)

    @property
    def allocations(self) -> list[float]:
        """Treatment allocations covered by the sweep."""
        return [k / self.n_units for k in sorted(self.results)]

    def curve(self, metric: str) -> PotentialOutcomeCurve:
        """Potential-outcome curve ``mu_T(p)``, ``mu_C(p)`` for a metric."""
        mu_t: dict[float, float] = {}
        mu_c: dict[float, float] = {}
        for k, result in self.results.items():
            p = k / self.n_units
            if k > 0:
                mu_t[p] = result.group_mean(metric, treated=True)
            if k < self.n_units:
                mu_c[p] = result.group_mean(metric, treated=False)
        return PotentialOutcomeCurve(metric, mu_t, mu_c)

    def ab_estimates(self, metric: str) -> dict[float, float]:
        """Naive A/B estimates at every interior allocation of the sweep."""
        estimates: dict[float, float] = {}
        for k, result in self.results.items():
            if 0 < k < self.n_units:
                estimates[k / self.n_units] = result.ab_estimate(metric)
        return estimates

    def tte(self, metric: str) -> float:
        """Total treatment effect measured by the sweep's endpoints."""
        return self.curve(metric).tte()

    def spillover(self, metric: str, allocation: float) -> float:
        """Spillover on control units at the given allocation."""
        return self.curve(metric).spillover(allocation)


def run_lab_sweep(
    n_units: int,
    treatment_factory: Callable[[int], Application],
    control_factory: Callable[[int], Application],
    link: BottleneckLink | None = None,
    model: CompetitionModel | None = None,
    noise: float = 0.0,
    seed: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    executor: ParallelExecutor | None = None,
) -> LabSweepResult:
    """Sweep the number of treated applications from 0 to ``n_units``.

    Parameters
    ----------
    n_units:
        Number of applications sharing the link in every run (paper: 10).
    treatment_factory, control_factory:
        Callables mapping an application id to a treated / control
        :class:`Application`.  The first ``k`` ids are treated in the run
        with ``k`` treated units.
    link, model, noise, seed:
        Passed through to :func:`run_lab_experiment`.
    jobs, cache, executor:
        Each allocation is one independent arm; arms run through a
        :class:`~repro.runner.executor.ParallelExecutor` with ``jobs``
        worker processes and an optional result cache.  Every arm derives
        its noise from ``seed + k``, so results are bit-identical for any
        ``jobs``.
    """
    if n_units < 1:
        raise ValueError("n_units must be at least 1")
    # Resolve defaults before building specs so the cache key records the
    # actual simulation inputs rather than None placeholders.
    link = link or BottleneckLink()
    model = model or CompetitionModel()
    specs: list[ScenarioSpec] = []
    for k in range(n_units + 1):
        apps: list[Application] = []
        for i in range(n_units):
            if i < k:
                apps.append(treatment_factory(i).as_treated())
            else:
                apps.append(control_factory(i).as_control())
        specs.append(
            ScenarioSpec(
                task="netsim.fluid_arm",
                params={
                    "applications": tuple(apps),
                    "link": link,
                    "model": model,
                    "noise": noise,
                },
                seed=None if seed is None else seed + k,
                label=f"fluid_arm[k={k}/{n_units}]",
            )
        )
    executor = executor or ParallelExecutor(jobs=jobs, cache=cache)
    sweep = LabSweepResult(n_units=n_units)
    for k, result in enumerate(executor.map(specs)):
        sweep.results[k] = result
    return sweep


def run_isolated_sweep(
    n_units: int,
    treatment_factory: Callable[[int], Application],
    control_factory: Callable[[int], Application],
    link: BottleneckLink | None = None,
    model: CompetitionModel | None = None,
) -> LabSweepResult:
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
    sweep = LabSweepResult(n_units=n_units)
    for k in range(n_units + 1):
        throughput: dict[int, float] = {}
        retrans: dict[int, float] = {}
        apps: list[Application] = []
        for i in range(n_units):
            app = (
                treatment_factory(i).as_treated()
                if i < k
                else control_factory(i).as_control()
            )
            apps.append(app)
            solo = run_lab_experiment([app], link=slice_link, model=model)
            throughput[app.app_id] = solo.throughput_mbps[app.app_id]
            retrans[app.app_id] = solo.retransmit_fraction[app.app_id]
        sweep.results[k] = LabExperimentResult(tuple(apps), throughput, retrans)
    return sweep
