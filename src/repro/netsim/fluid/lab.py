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
A sweep builds its treated and its control units once, as
:class:`~repro.netsim.fluid.competition.UnitColumns`, and each arm picks
its units from the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.estimands import AllocationSweep
from repro.netsim.fluid.application import Application
from repro.netsim.fluid.competition import (
    CompetitionModel,
    UnitColumns,
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


@dataclass(frozen=True, eq=False)
class LabExperimentResult:
    """Per-application outcomes of one lab run at a fixed allocation.

    Entry ``i`` of every array belongs to unit ``i`` of the run.

    Attributes
    ----------
    treated:
        Whether each unit is in the treatment group.
    throughput_mbps:
        Average long-term throughput of each unit.
    retransmit_fraction:
        Fraction of bytes each unit retransmitted.
    """

    treated: np.ndarray
    throughput_mbps: np.ndarray
    retransmit_fraction: np.ndarray

    def group_mean(self, metric: str, treated: bool) -> float:
        """Mean of a metric over the treated or control applications.

        ``np.add.reduce`` of the values divided by their count: what
        ``ndarray.mean`` computes for float64, without its wrapper.
        """
        if metric not in LAB_METRICS:
            raise KeyError(f"unknown lab metric {metric!r}; expected one of {LAB_METRICS}")
        values = getattr(self, metric)[self.treated if treated else ~self.treated]
        if not values.size:
            raise ValueError(
                f"no {'treated' if treated else 'control'} applications in this run"
            )
        return float(np.add.reduce(values) / values.size)


def _check_noise(noise: float) -> None:
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be non-negative and finite, got {noise!r}")


def _run_arm(
    link: BottleneckLink,
    units: UnitColumns,
    model: CompetitionModel,
    noise: float,
    seed: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each unit's noisy throughput and retransmit fraction on a shared link.

    Unit ``i``'s throughput is scaled by ``1 + draws[2i]`` and its
    retransmit fraction by ``1 + draws[2i + 1]``, where ``draws`` is one
    normal draw of ``2n`` values from ``seed``: the values, in order, of
    drawing a throughput and then a retransmit factor for each unit.
    """
    shares = allocate_throughput(link, units, model)
    loss = link_loss_rate(link, units, shares, model)
    n = len(units)
    if noise > 0:
        draws = np.random.default_rng(seed).normal(0.0, noise, size=2 * n)
    else:
        draws = np.zeros(2 * n)
    factors = 1.0 + draws
    return np.maximum(shares * factors[0::2], 0.0), np.clip(loss * factors[1::2], 0.0, 1.0)


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
    _check_noise(noise)
    throughput, retransmit = _run_arm(
        link or BottleneckLink(),
        UnitColumns.from_applications(applications),
        model or CompetitionModel(),
        noise,
        seed,
    )
    treated = np.array([a.treated for a in applications], dtype=bool)
    return LabExperimentResult(treated, throughput, retransmit)


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
        with ``k`` treated units.  Each factory is called once per id.
    link, model, noise:
        As for :func:`run_lab_experiment`.
    seed:
        The run with ``k`` treated units draws its noise from ``seed + k``.
    """
    if n_units < 1:
        raise ValueError("n_units must be at least 1")
    _check_noise(noise)
    link = link or BottleneckLink()
    model = model or CompetitionModel()
    treated_units = UnitColumns.from_applications([treatment_factory(i) for i in range(n_units)])
    control_units = UnitColumns.from_applications([control_factory(i) for i in range(n_units)])
    index = np.arange(n_units)
    sweep = AllocationSweep(n_units)
    for k in range(n_units + 1):
        treated = index < k
        throughput, retransmit = _run_arm(
            link,
            treated_units.where(treated, control_units),
            model,
            noise,
            None if seed is None else seed + k,
        )
        sweep.results[k] = LabExperimentResult(treated, throughput, retransmit)
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
    an equal slice ``capacity / n_units`` of the original link, so each
    unit's treated and control outcomes are computed once and every arm
    picks between them.
    """
    if n_units < 1:
        raise ValueError("n_units must be at least 1")
    link = link or BottleneckLink()
    model = model or CompetitionModel()
    slice_link = BottleneckLink(
        capacity_gbps=link.capacity_gbps / n_units,
        base_rtt_ms=link.base_rtt_ms,
        buffer_bdp=link.buffer_bdp,
        mtu_bytes=link.mtu_bytes,
    )

    def alone(factory: Callable[[int], Application]) -> list[np.ndarray]:
        """Each unit's throughput and retransmit fraction alone on its slice."""
        runs = [
            _run_arm(slice_link, UnitColumns.from_applications([factory(i)]), model, 0.0, None)
            for i in range(n_units)
        ]
        return [np.concatenate(metric) for metric in zip(*runs)]

    treated_alone, control_alone = alone(treatment_factory), alone(control_factory)
    index = np.arange(n_units)
    sweep = AllocationSweep(n_units)
    for k in range(n_units + 1):
        treated = index < k
        sweep.results[k] = LabExperimentResult(
            treated,
            *(np.where(treated, t, c) for t, c in zip(treated_alone, control_alone)),
        )
    return sweep
