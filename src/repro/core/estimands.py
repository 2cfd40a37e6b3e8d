"""Causal estimands for network experiments.

Section 2 of the paper defines, for a treatment allocation ``p``:

``mu_T(p)``
    Expected average outcome of *treated* units when a fraction ``p`` of
    units is treated.
``mu_C(p)``
    Expected average outcome of *control* units when a fraction ``p`` of
    units is treated.
``tau(p) = mu_T(p) - mu_C(p)``
    The average treatment effect measured by an A/B test at allocation ``p``.
``TTE = mu_T(1) - mu_C(0)``
    The total treatment effect: what changes if the experimenter moves all
    of their traffic to the new algorithm.
``s(p) = mu_C(p) - mu_C(0)``
    The spillover of treatment onto control units.
``rho(p) = mu_T(p) - mu_C(0)``
    The partial treatment effect, useful during gradual deployments.

When the Stable Unit Treatment Value Assumption (SUTVA) holds, ``mu_T`` and
``mu_C`` do not depend on ``p``; then ``tau(p) = TTE`` for every ``p`` and
spillovers are identically zero.  Congestion interference breaks SUTVA.

:class:`PotentialOutcomeCurve` stores ``mu_T(p)`` and ``mu_C(p)`` sampled on
a grid of allocations — exactly what the lab experiments of Section 3
measure — and computes every estimand from it.  :class:`AllocationSweep`
holds the lab runs such a grid comes from, on either simulator, and builds
the curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Any

import numpy as np

__all__ = [
    "AllocationSweep",
    "PotentialOutcomeCurve",
    "sutva_holds",
]


class PotentialOutcomeCurve:
    """Treatment and control outcome means as a function of allocation.

    This is the object drawn in Figure 1 of the paper: for each allocation
    ``p`` on a grid, the mean outcome of treated units ``mu_T(p)`` and of
    control units ``mu_C(p)``.  The lab experiments of Section 3 measure
    these curves exhaustively by sweeping the number of treated flows from
    0 to 10.

    Parameters
    ----------
    metric:
        Name of the outcome metric the curve describes.
    treatment_means:
        Mapping from allocation ``p`` (0 < p <= 1) to ``mu_T(p)``.
    control_means:
        Mapping from allocation ``p`` (0 <= p < 1) to ``mu_C(p)``.
    """

    def __init__(
        self,
        metric: str,
        treatment_means: Mapping[float, float],
        control_means: Mapping[float, float],
    ):
        self.metric = metric
        self._mu_t = {float(p): float(v) for p, v in treatment_means.items()}
        self._mu_c = {float(p): float(v) for p, v in control_means.items()}
        for p in self._mu_t:
            if not 0.0 < p <= 1.0:
                raise ValueError(f"treatment mean defined at invalid allocation {p}")
        for p in self._mu_c:
            if not 0.0 <= p < 1.0:
                raise ValueError(f"control mean defined at invalid allocation {p}")
        if not self._mu_t:
            raise ValueError("at least one treatment mean is required")
        if not self._mu_c:
            raise ValueError("at least one control mean is required")

    # -- accessors ----------------------------------------------------------

    @property
    def allocations(self) -> list[float]:
        """Sorted list of all allocations at which either curve is defined."""
        return sorted(set(self._mu_t) | set(self._mu_c))

    def mu_treatment(self, allocation: float) -> float:
        """``mu_T(p)``: mean treated outcome at the given allocation."""
        return self._interpolate(self._mu_t, allocation, "treatment")

    def mu_control(self, allocation: float) -> float:
        """``mu_C(p)``: mean control outcome at the given allocation."""
        return self._interpolate(self._mu_c, allocation, "control")

    @staticmethod
    def _interpolate(curve: dict[float, float], p: float, label: str) -> float:
        p = float(p)
        if p in curve:
            return curve[p]
        xs = np.array(sorted(curve))
        ys = np.array([curve[x] for x in xs])
        if p < xs[0] or p > xs[-1]:
            raise ValueError(
                f"allocation {p} outside the measured {label} range "
                f"[{xs[0]}, {xs[-1]}]"
            )
        return float(np.interp(p, xs, ys))

    # -- estimands ------------------------------------------------------------

    def ate(self, allocation: float) -> float:
        """Average treatment effect ``tau(p) = mu_T(p) - mu_C(p)``."""
        return self.mu_treatment(allocation) - self.mu_control(allocation)

    def tte(self) -> float:
        """Total treatment effect ``mu_T(1) - mu_C(0)``.

        Requires the curve to be measured at full deployment (p = 1) and at
        zero deployment (p = 0).
        """
        if 1.0 not in self._mu_t:
            raise ValueError("TTE requires mu_T measured at allocation 1.0")
        if 0.0 not in self._mu_c:
            raise ValueError("TTE requires mu_C measured at allocation 0.0")
        return self._mu_t[1.0] - self._mu_c[0.0]

    def spillover(self, allocation: float) -> float:
        """Spillover ``s(p) = mu_C(p) - mu_C(0)`` of treatment on control."""
        if allocation >= 1.0:
            raise ValueError("spillover is undefined at allocation 1.0 (no control)")
        if 0.0 not in self._mu_c:
            raise ValueError("spillover requires mu_C measured at allocation 0.0")
        return self.mu_control(allocation) - self._mu_c[0.0]

    def partial_effect(self, allocation: float) -> float:
        """Partial treatment effect ``rho(p) = mu_T(p) - mu_C(0)``."""
        if 0.0 not in self._mu_c:
            raise ValueError("partial effect requires mu_C measured at allocation 0.0")
        return self.mu_treatment(allocation) - self._mu_c[0.0]

    def ab_test_bias(self, allocation: float) -> float:
        """Bias of a naive A/B test at ``allocation``: ``tau(p) - TTE``."""
        return self.ate(allocation) - self.tte()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PotentialOutcomeCurve(metric={self.metric!r}, "
            f"allocations={self.allocations})"
        )


@dataclass
class AllocationSweep:
    """One lab run at each number of treated units: an allocation sweep.

    Every lab figure, fluid or packet-level, is one of these: run the lab
    with ``k`` of ``n_units`` units treated for each ``k``, then read
    ``mu_T(p)`` and ``mu_C(p)`` at ``p = k / n_units`` off the runs.

    Attributes
    ----------
    n_units:
        Number of units in every run.
    results:
        ``results[k]`` is the run with ``k`` treated units.  A run is any
        result with ``group_mean(metric, treated)``, the mean of a metric
        over its treated or control units.
    """

    n_units: int
    results: dict[int, Any] = field(default_factory=dict)

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
                mu_t[p] = result.group_mean(metric, True)
            if k < self.n_units:
                mu_c[p] = result.group_mean(metric, False)
        return PotentialOutcomeCurve(metric, mu_t, mu_c)

    def tte(self, metric: str) -> float:
        """Total treatment effect measured by the sweep's endpoints."""
        return self.curve(metric).tte()

    def ab_estimate(self, metric: str, allocation: float) -> float:
        """Naive A/B estimate ``tau(p)`` at one allocation."""
        return self.curve(metric).ate(allocation)

    def spillover(self, metric: str, allocation: float) -> float:
        """Spillover on control units at the given allocation."""
        return self.curve(metric).spillover(allocation)


def sutva_holds(
    curve: PotentialOutcomeCurve,
    tolerance: float = 1e-9,
    relative: bool = False,
) -> bool:
    """Check whether the measured curve is consistent with SUTVA.

    Under SUTVA the treatment curve and the control curve are each flat in
    the allocation: ``mu_T(p)`` and ``mu_C(p)`` do not depend on ``p``.
    This check compares the spread of each curve against ``tolerance``
    (absolutely, or relative to the curve's mean magnitude when
    ``relative=True``).
    """
    mu_t = np.array([curve.mu_treatment(p) for p in sorted(curve._mu_t)])
    mu_c = np.array([curve.mu_control(p) for p in sorted(curve._mu_c)])

    def _flat(values: np.ndarray) -> bool:
        if values.size <= 1:
            return True
        spread = float(values.max() - values.min())
        if relative:
            scale = max(abs(float(values.mean())), 1e-12)
            return spread / scale <= tolerance
        return spread <= tolerance

    return _flat(mu_t) and _flat(mu_c)
