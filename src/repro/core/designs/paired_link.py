"""The paired-link design of Section 4.

Two statistically similar, reliably congested links are treated as
"parallel universes".  A high-allocation A/B test (default 95 %) runs on
link 1 and a low-allocation A/B test (default 5 %) runs on link 2,
simultaneously.  Four estimands follow:

* ``ab_0.95`` — the naive within-link A/B effect on the mostly-treated link.
* ``ab_0.05`` — the naive within-link A/B effect on the mostly-control link.
* ``tte`` — approximate total treatment effect: the 95 % treated sessions on
  link 1 compared against the 95 % control sessions on link 2.
* ``spillover`` — the 5 % control sessions on link 1 (sharing a link with
  mostly treated traffic) compared against the 95 % control sessions on
  link 2.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.designs.base import (
    AllocationPlan,
    CellSelector,
    ComparisonSpec,
    ExperimentDesign,
)

__all__ = ["DESIGN", "PairedLinkDesign"]


class PairedLinkDesign(ExperimentDesign):
    """Simultaneous high/low-allocation A/B tests on two parallel links.

    Parameters
    ----------
    high_allocation:
        Treatment allocation on the mostly-treated link (paper: 0.95).
    low_allocation:
        Treatment allocation on the mostly-control link (paper: 0.05).
    treated_link:
        Identifier of the link receiving the high allocation (paper: link 1).
    control_link:
        Identifier of the link receiving the low allocation (paper: link 2).
    """

    name = "paired_link"

    def __init__(
        self,
        high_allocation: float = 0.95,
        low_allocation: float = 0.05,
        treated_link: int = 1,
        control_link: int = 2,
    ):
        if not 0.0 < high_allocation <= 1.0:
            raise ValueError("high_allocation must be in (0, 1]")
        if not 0.0 <= low_allocation < 1.0:
            raise ValueError("low_allocation must be in [0, 1)")
        if high_allocation <= low_allocation:
            raise ValueError("high_allocation must exceed low_allocation")
        if treated_link == control_link:
            raise ValueError("treated_link and control_link must differ")
        self.high_allocation = float(high_allocation)
        self.low_allocation = float(low_allocation)
        self.treated_link = int(treated_link)
        self.control_link = int(control_link)

    def allocation_plan(
        self, links: Sequence[int], days: Sequence[int]
    ) -> AllocationPlan:
        cells: dict[tuple[int, int], float] = {}
        for day in days:
            for link in links:
                if link == self.treated_link:
                    cells[(int(link), int(day))] = self.high_allocation
                elif link == self.control_link:
                    cells[(int(link), int(day))] = self.low_allocation
                else:
                    cells[(int(link), int(day))] = 0.0
        return AllocationPlan(cells, default=0.0)

    def comparisons(
        self, links: Sequence[int], days: Sequence[int]
    ) -> list[ComparisonSpec]:
        days_t = tuple(int(day) for day in days)
        link1 = (self.treated_link,)
        link2 = (self.control_link,)
        return [
            ComparisonSpec(
                estimand="tte",
                treatment_selector=CellSelector(link1, days_t, treated=True),
                control_selector=CellSelector(link2, days_t, treated=False),
                description=(
                    "Approximate TTE: mostly-treated sessions on the treated link "
                    "vs mostly-control sessions on the control link."
                ),
            ),
            ComparisonSpec(
                estimand="spillover",
                treatment_selector=CellSelector(link1, days_t, treated=False),
                control_selector=CellSelector(link2, days_t, treated=False),
                description=(
                    "Spillover: control sessions sharing a link with mostly "
                    "treated traffic vs control sessions on the mostly-control link."
                ),
            ),
            ComparisonSpec(
                estimand=f"ab_{self.high_allocation:g}",
                treatment_selector=CellSelector(link1, days_t, treated=True),
                control_selector=CellSelector(link1, days_t, treated=False),
                description="Naive A/B effect within the mostly-treated link.",
            ),
            ComparisonSpec(
                estimand=f"ab_{self.low_allocation:g}",
                treatment_selector=CellSelector(link2, days_t, treated=True),
                control_selector=CellSelector(link2, days_t, treated=False),
                description="Naive A/B effect within the mostly-control link.",
            ),
        ]

    def describe(self) -> str:
        return (
            f"Paired-link experiment: link {self.treated_link} at "
            f"p={self.high_allocation:g}, link {self.control_link} at "
            f"p={self.low_allocation:g}"
        )


#: The paper's design: link 1 at 95 % capping, link 2 at 5 %.
DESIGN = PairedLinkDesign()
